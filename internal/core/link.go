package core

import (
	"errors"
	"fmt"
	"slices"

	"mes/internal/codec"
	"mes/internal/metrics"
	"mes/internal/osmodel"
	"mes/internal/runner"
	"mes/internal/sim"
	"mes/internal/timing"
)

// systems pools simulated machines: sessions acquire one on their first
// trial and hand it back on Close, so sweep cells and one-shot Runs stop
// rebuilding the kernel, namespaces, filesystem and process structures
// per trial. System.Reset restores a pooled machine to as-new state, so
// results are bit-identical whether a trial gets a recycled or a fresh
// machine. Machines evicted on overflow are released so their parked
// coroutines exit instead of pinning the machine forever.
var systems = runner.NewPoolDrop(func(s *osmodel.System) { s.Release() })

// Config describes one covert-channel transmission.
type Config struct {
	Mechanism Mechanism
	Scenario  Scenario
	// Params are the time parameters; zero value selects the paper's
	// Timeset for the mechanism/scenario (DefaultParams).
	Params Params
	// Payload is the secret bitstream the Trojan leaks.
	Payload codec.Bits
	// SyncLen is the length (in symbols) of the synchronization preamble
	// (default 8, the paper's "10101010").
	SyncLen int
	// Seed drives all noise; equal seeds replay identically.
	Seed uint64
	// Noiseless disables all stochastic timing (protocol-logic tests).
	Noiseless bool
	// Trace optionally records kernel events.
	Trace *sim.Trace
	// DisableInterBitSync removes the contention channels' per-bit
	// rendezvous (paper §V.B ablation: errors accumulate).
	DisableInterBitSync bool
	// UnfairCompetition switches the critical resource to unfair (barging)
	// competition (paper §V.B: the channel only works under fair
	// competition). Supported on the flock mechanism.
	UnfairCompetition bool
	// SetupDelay is how long the Trojan waits before opening the shared
	// object (default 200µs).
	SetupDelay sim.Duration
	// FaultRate arms the kernel's deterministic fault-injection plane:
	// the probability, per schedule/wake consult, of injecting a spurious
	// wakeup, lost or delayed wake, preemption burst, or process crash.
	// 0 disables the plane and is byte-identical to a build without it.
	// Negative values normalize to 0 (the sweep layer's unset sentinel).
	FaultRate float64
	// FaultSeed decorrelates the fault substream from the noise seed;
	// equal (Seed, FaultRate, FaultSeed) triples inject identically.
	FaultSeed uint64
	// Recover arms the self-healing protocol layer: a trial watchdog
	// that converts lost wakes into ErrTimedOut rescues, timeout-tolerant
	// sender/receiver loops, and periodic resync preambles the decoder
	// re-locks on after sync loss.
	Recover bool
}

// Result reports one transmission.
type Result struct {
	Mechanism Mechanism
	Scenario  Scenario
	Params    Params

	SentSyms     []int          // transmitted symbols (sync + payload)
	Latencies    []sim.Duration // Spy measurements, one per symbol
	DecodedSyms  []int          // decoded payload symbols
	ReceivedBits codec.Bits     // decoded payload bits (trimmed to payload length)
	SyncOK       bool           // preamble verified (paper §V.B round check)
	Resyncs      int            // decoder re-locks performed on resync preambles (Recover mode)

	BitErrors int
	BER       float64 // payload bit error rate
	TRKbps    float64 // payload transmission rate, kb/s
	Elapsed   sim.Duration
	Decoder   *Decoder
}

// link carries the shared state of one transmission run. Each Session
// owns one and retains everything a replayed configuration needs — the
// symbol sequence, the latency scratch buffer, the sender/receiver pair,
// the rendezvous structure, the profile copy and the two process-body
// trampolines — so a steady-state trial rebuilds nothing.
//
// Ownership of the slices a Result exposes: SentSyms aliases l.syms, which
// is immutable once built — the link replaces it wholesale (never mutates
// it in place) when a run's symbols differ from the previous run's, so
// Results handed out earlier keep their own consistent copy. Latencies
// alias the scratch buffer and are valid until the next trial (Run copies
// them out; see session.go).
type link struct {
	cfg     Config
	par     Params
	m       int
	syms    []int // immutable handed-out symbol sequence (see above)
	syncLen int

	prof      timing.Profile
	lat       []sim.Duration
	payStart  sim.Time
	payEnd    sim.Time
	trojanErr error
	spyErr    error
	misses    int
	uncontend sim.Duration // redraw value for missed acquisitions

	// symsBuf/latBuf are the retained scratch buffers behind syms and lat:
	// grow-once, resliced per run. packBuf stages the packed payload when
	// Recover mode interleaves resync preambles; decScratch is the trial
	// re-lock candidate so a failed recalibration never clobbers a good
	// lock.
	symsBuf    []int
	latBuf     []sim.Duration
	packBuf    []int
	decScratch Decoder

	// Per-run channel machinery. The sender/receiver pair is cached per
	// mechanism (pairMech) and rebound to the run's parameters and object
	// name; the rendezvous is embedded (rvStore) and re-initialized.
	snd        sender
	rcv        receiver
	pairMech   Mechanism
	rv         *osmodel.Rendezvous
	rvStore    osmodel.Rendezvous
	contention bool
	setupDelay sim.Duration

	// spyFn/trojanFn close over the stable link only and are built once
	// per structure, so recycled links spawn without closure allocations.
	spyFn    func(*osmodel.Proc)
	trojanFn func(*osmodel.Proc)

	// name is the run's kernel-object name and sharePath the flock shared
	// file derived from it (see objectName).
	name      string
	sharePath string
}

// objectNames holds each mechanism's untraced object name and flock
// shared-file path, built once so untraced trials never format a string.
var objectNames = func() (t [numMechanisms]struct{ name, sharePath string }) {
	for _, m := range Mechanisms() {
		t[m].name = fmt.Sprintf("mes_%v", m)
		t[m].sharePath = "/share/" + t[m].name + ".txt"
	}
	return t
}()

// objectName sets the run's object name from its own configuration and
// nothing else, so no name depends on what ran earlier on the link. Each
// run owns a private machine, so names never collide and never influence
// a Result; they reach output only through traces and deadlock wait-for
// snapshots. A traced run is named mes_<mech>_<seed>, which the trace
// goldens and the detector experiment's rendered rows pin; an untraced
// run takes its mechanism's fixed name from objectNames.
func (l *link) objectName() {
	cfg := &l.cfg
	if cfg.Trace == nil {
		n := &objectNames[cfg.Mechanism]
		l.name, l.sharePath = n.name, n.sharePath
		return
	}
	l.name = fmt.Sprintf("mes_%v_%d", cfg.Mechanism, cfg.Seed)
	if cfg.Mechanism == Flock {
		l.sharePath = "/share/" + l.name + ".txt"
	}
}

// newLink builds a link with its body trampolines bound.
func newLink() *link {
	l := &link{}
	l.spyFn = func(p *osmodel.Proc) { l.runSpy(p) }
	l.trojanFn = func(p *osmodel.Proc) { l.runTrojan(p) }
	return l
}

// runSpy is the Spy process body: one measurement per symbol. In Recover
// mode a watchdog-rescued wait (barrier or measurement) logs the
// long-level sentinel instead of aborting, so every symbol slot stays
// filled and the decoder can resync downstream.
//
//mes:allocfree
func (l *link) runSpy(p *osmodel.Proc) {
	if err := l.rcv.setup(p); err != nil {
		l.spyErr = err
		return
	}
	var prevM sim.Duration
	for i := range l.syms {
		synced := true
		if l.rv != nil {
			synced = l.rv.ArriveFollow(p)
		}
		var m sim.Duration
		if synced {
			var err error
			m, err = l.rcv.measure(p)
			switch {
			case err == nil:
				m = l.observe(p, m, prevM)
			case l.cfg.Recover && errors.Is(err, osmodel.ErrTimedOut):
				m = l.timeoutMeasure()
			default:
				l.spyErr = err
				return
			}
		} else {
			m = l.timeoutMeasure()
		}
		prevM = m
		l.lat = append(l.lat, m)
		if l.contention && l.rv == nil && !l.cfg.UnfairCompetition {
			// Open-loop pacing (Protocol 1's SLEEP_PERIOD_2) when the
			// fine-grained inter-bit sync is ablated away. In the
			// unfair ablation the Spy hammers instead — §V.B: the Spy
			// then occupies the resource for the rest of the round.
			p.Sleep(l.par.TT0)
		}
		if i == l.syncLen { // warm-up + preamble done
			l.payStart = p.Now()
		}
	}
	l.payEnd = p.Now()
}

// runTrojan is the Trojan process body: one send per symbol.
//
//mes:allocfree
func (l *link) runTrojan(p *osmodel.Proc) {
	p.Sleep(l.setupDelay)
	if err := l.snd.setup(p); err != nil {
		l.trojanErr = err
		return
	}
	for _, sym := range l.syms {
		// Symbol-window boundary: the kernel counts windows for the
		// switches-per-bit trajectory row.
		p.MarkBit()
		if l.rv != nil {
			if !l.rv.ArriveLead(p) {
				continue // round lost to a timeout; the spy logs a sentinel
			}
		}
		if err := l.snd.send(p, sym); err != nil {
			if l.cfg.Recover && errors.Is(err, osmodel.ErrTimedOut) {
				continue // skip the symbol; the decoder re-locks downstream
			}
			l.trojanErr = err
			return
		}
		if l.contention && l.rv == nil {
			p.Sleep(l.par.TT0) // Protocol 1's SLEEP_PERIOD_1
		}
	}
}

// timeoutMeasure is the deterministic long-level sentinel the Spy logs
// for a symbol slot whose wait was rescued by the trial watchdog: the
// longest latency the substrate legitimately produces, so the slot
// decodes as the max symbol instead of corrupting calibration medians.
//
//mes:allocfree
func (l *link) timeoutMeasure() sim.Duration {
	if l.cfg.Mechanism.Kind() == Cooperation {
		return l.par.TW0 + l.par.TI*sim.Duration(l.m-1) + 25*sim.Microsecond
	}
	return l.par.TT1
}

// watchdog derives the recovery watchdog's check period and rescue
// patience from the run's time parameters: patience spans several bit
// periods (plus setup slack) so no legitimately blocked wait is ever
// rescued, and the check period quarters it so a lost wake costs a
// bounded number of bit slots.
func (l *link) watchdog() (period, patience sim.Duration) {
	bit := l.par.TT0 + l.par.TT1 + l.par.TW0 + l.par.TI*sim.Duration(l.m)
	patience = 8*bit + 2*sim.Millisecond
	return patience / 4, patience
}

// resyncEvery is the Recover-mode resync cadence: a fresh sync preamble
// is interleaved after every resyncEvery payload symbols, giving the
// decoder a re-lock point at most one block after any sync loss.
const resyncEvery = 32

// bindSymbols (re)builds the run's symbol sequence — one warm-up symbol
// that absorbs the Trojan's setup latency so the first preamble
// measurement reflects steady-state timing, the sync preamble, then the
// packed payload — into the retained scratch buffer. In Recover mode the
// payload is chunked with a resync preamble between blocks (see
// resyncEvery). The immutable handed-out copy (l.syms) is replaced only
// when the contents actually changed, so replayed configurations share
// one allocation across runs. The latency buffer is resliced to empty.
func (l *link) bindSymbols() error {
	packed := codec.PackedLen(len(l.cfg.Payload), l.par.bps())
	blocks := 0
	if l.cfg.Recover && packed > resyncEvery {
		blocks = (packed - 1) / resyncEvery
	}
	need := 1 + l.syncLen + packed + blocks*l.syncLen
	buf := l.symsBuf[:0]
	if cap(buf) < need {
		buf = make([]int, 0, need)
	}
	buf = append(buf, 0)
	buf = codec.AppendSyncSymbols(buf, l.syncLen, l.par.bps())
	var err error
	if blocks == 0 {
		buf, err = codec.AppendPack(buf, l.cfg.Payload, l.par.bps())
		if err != nil {
			return err
		}
	} else {
		l.packBuf, err = codec.AppendPack(l.packBuf[:0], l.cfg.Payload, l.par.bps())
		if err != nil {
			return err
		}
		for i := 0; i < len(l.packBuf); i += resyncEvery {
			if i > 0 {
				buf = codec.AppendSyncSymbols(buf, l.syncLen, l.par.bps())
			}
			buf = append(buf, l.packBuf[i:min(i+resyncEvery, len(l.packBuf))]...)
		}
	}
	l.symsBuf = buf
	if !slices.Equal(l.syms, buf) {
		l.syms = slices.Clone(buf)
	}
	if cap(l.latBuf) < len(l.syms) {
		l.latBuf = make([]sim.Duration, 0, len(l.syms))
	}
	l.lat = l.latBuf[:0]
	return nil
}

// bindPair points the link's cached sender/receiver pair at the run's
// mechanism, parameters and object name, building a fresh pair only when
// the mechanism changed since the previous run on this link.
func (l *link) bindPair() error {
	if l.snd != nil && l.pairMech == l.cfg.Mechanism {
		l.snd.(rebindable).rebind(l.par, l.name)
		l.rcv.(rebindable).rebind(l.par, l.name)
		return nil
	}
	snd, rcv, err := newPair(l.cfg.Mechanism, l.par, l.name)
	if err != nil {
		return err
	}
	l.snd, l.rcv, l.pairMech = snd, rcv, l.cfg.Mechanism
	return nil
}

// arm prepares the link's run on sys — domains, object name, channel pair,
// the flock shared file, rendezvous — and spawns the two processes. On
// error no process has run, and the next trial's Reset restores sys.
func (l *link) arm(sys *osmodel.System) error {
	cfg := &l.cfg
	trojanDom, spyDom := domainsFor(sys, cfg.Mechanism, cfg.Scenario)

	l.objectName()
	if err := l.bindPair(); err != nil {
		return err
	}
	if cfg.Mechanism == Flock {
		in, err := sys.CreateSharedFile(l.sharePath, 64, true, true)
		if err != nil {
			return err
		}
		in.SetFair(!cfg.UnfairCompetition)
	}
	l.uncontend = uncontendedEstimate(&l.prof, cfg.Mechanism)

	l.contention = cfg.Mechanism.Kind() == Contention
	l.rv = nil
	if l.contention && !cfg.DisableInterBitSync {
		l.rvStore.Init(sys)
		l.rv = &l.rvStore
	}

	l.setupDelay = cfg.SetupDelay
	if l.setupDelay == 0 {
		l.setupDelay = 200 * sim.Microsecond
	}

	sys.Spawn("spy", spyDom, l.spyFn)
	sys.Spawn("trojan", trojanDom, l.trojanFn)
	return nil
}

// BenchConfig is the standard single-transmission workload behind the
// performance-trajectory numbers (BenchmarkTransmission, `mesbench
// -benchjson`): a 1000-bit Event-channel transmission in the local
// scenario at a fixed seed. Keeping it here keeps the two consumers
// measuring the same thing.
func BenchConfig() Config {
	return Config{
		Mechanism: Event,
		Scenario:  Local(),
		Payload:   codec.Random(sim.NewRNG(3), 1000),
		Seed:      1,
	}
}

// prepare validates cfg and resolves the derived transmission parameters
// for NewSession and every trial.
func prepare(cfg *Config) (par Params, syncLen int, err error) {
	if len(cfg.Payload) == 0 {
		return par, 0, errors.New("core: empty payload")
	}
	if err := Feasible(cfg.Mechanism, cfg.Scenario); err != nil {
		return par, 0, err
	}
	par = cfg.Params
	if par == (Params{}) {
		par = DefaultParams(cfg.Mechanism, cfg.Scenario.Isolation)
	}
	if par.bps() > 1 && cfg.Mechanism.Kind() != Cooperation {
		return par, 0, fmt.Errorf("core: multi-bit symbols require a cooperation channel (paper §VI); %v is %v",
			cfg.Mechanism, cfg.Mechanism.Kind())
	}
	if cfg.UnfairCompetition && cfg.Mechanism != Flock {
		return par, 0, errors.New("core: unfair-competition mode is modeled on the flock mechanism")
	}
	syncLen = cfg.SyncLen
	if syncLen == 0 {
		syncLen = 8
	}
	if syncLen < 2 {
		return par, 0, errors.New("core: sync preamble needs at least 2 symbols")
	}
	if cfg.FaultRate < 0 {
		cfg.FaultRate = 0 // the sweep layer's explicit-zero sentinel
	}
	return par, syncLen, nil
}

// observe applies the Spy-side measurement noise model to a raw latency m
// (see internal/timing's calib.go for the calibration):
//
//   - cooperation: "system blocking" outliers stretch the observation,
//     capped just under one bit period (longer delays are rounds the
//     sync-check protocol discards) — Fig. 9(a)'s error source;
//   - contention: a late lock attempt shortens the observed blocking of a
//     contended bit (Fig. 10's left side), and the Spy can miss the
//     blocking window entirely on long holds (Fig. 10's right side);
//   - both: rare wholesale corruption (the Spy observes the neighbouring
//     bit's timing), the guard-independent BER floor.
//
//mes:allocfree
func (l *link) observe(p *osmodel.Proc, m, prevM sim.Duration) sim.Duration {
	prof := &l.prof
	rng := p.Rand()
	if l.cfg.Mechanism.Kind() == Cooperation {
		cap := l.par.TW0 + 25*sim.Microsecond
		m += prof.HazardCapped(rng, m, cap)
	} else {
		if m > l.par.TT1/2 {
			// Contended acquisition: a delayed attempt eats into the
			// observed blocking time…
			if d := prof.AttemptDelay(rng); d > 0 {
				if m-d > l.uncontend {
					m -= d
				} else {
					m = l.uncontend
				}
			}
			// …and the Spy can be descheduled across the release edge,
			// missing the window outright.
			if prof.Miss(rng, m) {
				m = l.uncontend
				l.misses++
			}
		}
	}
	if prevM > 0 && prof.Corrupt(rng) {
		m = prevM
	}
	return m
}

// assemble fills res from the link's completed run: it calibrates dec from
// the preamble, verifies the sync round, decodes the payload appending
// into the session's decodedBuf/bitsBuf scratch, and computes the error
// metrics. The possibly grown buffers are returned for the session to
// retain; res.Latencies is the caller's to set.
func (l *link) assemble(res *Result, dec *Decoder, decodedBuf []int, bitsBuf codec.Bits) ([]int, codec.Bits, error) {
	res.Mechanism, res.Scenario, res.Params = l.cfg.Mechanism, l.cfg.Scenario, l.par
	res.SentSyms = l.syms
	res.Elapsed = l.payEnd.Sub(l.payStart)
	if len(l.lat) != len(l.syms) {
		return decodedBuf, bitsBuf, fmt.Errorf("core: received %d measurements for %d symbols", len(l.lat), len(l.syms))
	}
	if l.cfg.Recover {
		return l.assembleRecover(res, dec, decodedBuf, bitsBuf)
	}
	const warmup = 1
	if err := dec.calibrate(l.m, l.syms[warmup:warmup+l.syncLen], l.lat[warmup:warmup+l.syncLen]); err != nil {
		return decodedBuf, bitsBuf, err
	}
	res.Decoder = dec

	res.SyncOK = true
	for i := 0; i < l.syncLen; i++ {
		if dec.Decode(l.lat[warmup+i]) != codec.SyncSymbolAt(i, l.par.bps()) {
			res.SyncOK = false
			break
		}
	}

	decodedBuf = dec.AppendDecodeAll(decodedBuf[:0], l.lat[warmup+l.syncLen:])
	return l.finishDecode(res, decodedBuf, bitsBuf)
}

// assembleRecover is assemble's Recover-mode decode: the symbol stream
// is chunked with resync preambles (bindSymbols), and the decoder walks
// it block-wise. Each resync preamble is first verified against the
// current lock; a mismatch is a detected sync loss and the decoder
// re-calibrates from the preamble's own measurements (res.Resyncs). A
// preamble that fails to calibrate keeps the previous lock. If no
// preamble in the whole run locks, the trial fails with ErrSyncLoss.
func (l *link) assembleRecover(res *Result, dec *Decoder, decodedBuf []int, bitsBuf codec.Bits) ([]int, codec.Bits, error) {
	const warmup = 1
	bps := l.par.bps()
	pos := warmup
	preambles := 1
	locked := dec.calibrate(l.m, l.syms[pos:pos+l.syncLen], l.lat[pos:pos+l.syncLen]) == nil
	res.Decoder = dec
	res.SyncOK = locked
	if locked {
		for i := 0; i < l.syncLen; i++ {
			if dec.Decode(l.lat[pos+i]) != codec.SyncSymbolAt(i, bps) {
				res.SyncOK = false
				break
			}
		}
	}
	pos += l.syncLen
	decodedBuf = decodedBuf[:0]
	for first := true; pos < len(l.syms); first = false {
		if !first {
			inSync := locked
			if inSync {
				for i := 0; i < l.syncLen; i++ {
					if dec.Decode(l.lat[pos+i]) != codec.SyncSymbolAt(i, bps) {
						inSync = false
						break
					}
				}
			}
			if !inSync {
				preambles++
				if l.decScratch.calibrate(l.m, l.syms[pos:pos+l.syncLen], l.lat[pos:pos+l.syncLen]) == nil {
					*dec = l.decScratch
					locked = true
					res.Resyncs++
				}
			}
			pos += l.syncLen
		}
		n := min(resyncEvery, len(l.syms)-pos)
		if locked {
			decodedBuf = dec.AppendDecodeAll(decodedBuf, l.lat[pos:pos+n])
		} else {
			// No lock yet: the block is unreadable; emit symbol 0 so the
			// payload keeps its framing (errors land in the BER).
			for i := 0; i < n; i++ {
				decodedBuf = append(decodedBuf, 0)
			}
		}
		pos += n
	}
	if !locked {
		return decodedBuf, bitsBuf, &SyncLossError{Preambles: preambles}
	}
	return l.finishDecode(res, decodedBuf, bitsBuf)
}

// finishDecode unpacks the decoded payload symbols and computes the
// error metrics — the shared tail of both assemble paths.
func (l *link) finishDecode(res *Result, decodedBuf []int, bitsBuf codec.Bits) ([]int, codec.Bits, error) {
	res.DecodedSyms = decodedBuf
	bitsBuf, err := codec.AppendUnpack(bitsBuf[:0], decodedBuf, l.par.bps())
	if err != nil {
		return decodedBuf, bitsBuf, err
	}
	bits := bitsBuf
	if len(bits) > len(l.cfg.Payload) {
		bits = bits[:len(l.cfg.Payload)] // trim symbol padding
	}
	res.ReceivedBits = bits
	res.BitErrors, res.BER = metrics.BER(l.cfg.Payload, bits)
	res.TRKbps = metrics.TRKbps(len(l.cfg.Payload), res.Elapsed)
	return decodedBuf, bitsBuf, nil
}

// domainsFor places the Trojan and Spy per the scenario.
func domainsFor(sys *osmodel.System, m Mechanism, scn Scenario) (trojan, spy *osmodel.Domain) {
	switch scn.Isolation {
	case timing.Sandbox:
		return sys.AddSandbox("jail"), sys.Host()
	case timing.VM:
		hv := scn.hypervisorFor(m)
		return sys.AddVM("vm1", hv), sys.AddVM("vm2", hv)
	default:
		return sys.Host(), sys.Host()
	}
}

// uncontendedEstimate is the Spy's expected measurement when the resource
// is free: the miss model's redraw value.
func uncontendedEstimate(prof *timing.Profile, m Mechanism) sim.Duration {
	ts := prof.OpCost[timing.OpTimestamp]
	switch m {
	case Mutex:
		return 2*ts + prof.OpCost[timing.OpMutexAcquire] + prof.OpCost[timing.OpMutexRelease]
	case Semaphore:
		return 2*ts + prof.OpCost[timing.OpSemP] + prof.OpCost[timing.OpSemV]
	case Futex:
		return 2*ts + prof.OpCost[timing.OpFutexWait] + prof.OpCost[timing.OpFutexWake]
	case WriteSync:
		// The free-resource measurement is a clean-journal fsync.
		return 2*ts + prof.OpCost[timing.OpFsync]
	default:
		return 2*ts + prof.OpCost[timing.OpLock] + prof.OpCost[timing.OpUnlock]
	}
}
