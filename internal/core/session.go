package core

import (
	"errors"
	"fmt"
	"slices"

	"mes/internal/codec"
	"mes/internal/osmodel"
	"mes/internal/runner"
	"mes/internal/sim"
	"mes/internal/timing"
)

// Session is the trial engine: every transmission, Run's included, is one
// Session trial. A session pins one simulated machine, link,
// kernel-object pair and rendezvous for the lifetime of a sweep cell.
// Consecutive trials reset and reseed the pinned machine instead of
// tearing it down: the kernel's event queue and coroutines, the
// namespace's kernel objects, the VFS i-nodes and open-file entries, the
// flock shared file, the sender/receiver pair and the symbol/latency
// buffers are all reused in place, so a steady-state trial performs zero
// heap allocations. A trial's output depends only on its configuration,
// never on the trials that ran before it on the session.
//
// Result ownership: the *Result returned by Session.Run/RunConfig
// borrows the session's buffers and is valid only until the session's
// next trial. Callers must extract (or copy) what they keep before
// running the next trial. One exception is SentSyms, which is immutable
// and replaced — not overwritten — when a trial's symbols differ.
//
// A Session is not safe for concurrent use; the sweep layer gives each
// worker its own (see SessionCache and runner.MapWith).
type Session struct {
	base Config
	l    *link
	sys  *osmodel.System

	// Reused result storage (see the ownership note above).
	res     Result
	dec     Decoder
	decoded []int
	bits    codec.Bits

	// Monotonic kernel-counter bookkeeping (see KernelStats). The raw
	// kernel counters are NOT monotonic from the session's point of view:
	// Release clears them (the deadlocked-trial recovery path), and a
	// machine acquired from the shared pool arrives carrying another
	// session's history. statsAcc accumulates this session's deltas
	// retired by each Release; statsOff anchors the pinned machine's
	// counter values at acquisition so pooled history is subtracted out.
	statsAcc kernelCounters
	statsOff kernelCounters

	closed bool
}

// kernelCounters is one snapshot of the pinned machine's cumulative
// kernel counters.
type kernelCounters struct {
	switches uint64
	windows  uint64
}

// kernelCounters snapshots the pinned machine's raw counters. The caller
// must hold a machine (s.sys != nil).
func (s *Session) kernelCounters() kernelCounters {
	k := s.sys.Kernel()
	return kernelCounters{switches: k.Switches(), windows: k.Windows()}
}

// releaseMachine is the deadlocked-trial recovery path: when a trial's
// kernel Run errors (deadlock, stop), the blocked coroutines are unwound
// in place so nothing retains the trial's state. The released machine
// stays pinned to the session — Release leaves it equivalent to a fresh
// NewSystem, so the next trial's Reset replays exactly like a fresh
// machine and earlier trials are not poisoned. Release also clears the
// kernel's cumulative counters; they are folded into the session
// accumulator first so KernelStats never moves backwards across the
// recovery.
func (s *Session) releaseMachine() {
	s.retireKernelCounters()
	s.sys.Release()
}

// retireKernelCounters folds the pinned machine's counters-since-
// acquisition into the session accumulator. Called immediately before
// anything that clears or abandons the machine's counters (Release,
// returning the machine to the pool), so KernelStats stays monotonic
// across machine swaps.
func (s *Session) retireKernelCounters() {
	cur := s.kernelCounters()
	s.statsAcc.switches += cur.switches - s.statsOff.switches
	s.statsAcc.windows += cur.windows - s.statsOff.windows
	s.statsOff = kernelCounters{}
}

// NewSession validates cfg and builds a session pinned to its mechanism
// and scenario. cfg.Seed is only a default — each trial passes its own —
// and the machine is acquired lazily on the first trial (from the shared
// machine pool when available).
func NewSession(cfg Config) (*Session, error) {
	if _, _, err := prepare(&cfg); err != nil {
		return nil, err
	}
	return &Session{base: cfg, l: newLink()}, nil
}

// sessions pools the sessions behind Run. A pooled session holds no
// machine and no caller data (see release).
var sessions = runner.NewPool[*Session]()

// Run simulates a complete transmission and decodes the Spy's view: one
// trial on a session taken from a shared pool, with the Result copied out
// to caller-owned storage. Sweeps that replay one channel substrate many
// times should hold a Session (or use RunTrials) instead, which keeps the
// machine pinned across trials and skips the copy.
func Run(cfg Config) (*Result, error) {
	s, ok := sessions.Get()
	if !ok {
		s = &Session{l: newLink()}
	}
	s.base = cfg
	res, err := s.RunConfig(cfg)
	if res != nil {
		res = res.clone()
	}
	s.release()
	return res, err
}

// clone copies a borrowed session Result into caller-owned storage.
// SentSyms is immutable and stays shared.
func (r *Result) clone() *Result {
	c := *r
	c.Latencies = slices.Clone(r.Latencies)
	c.DecodedSyms = slices.Clone(r.DecodedSyms)
	c.ReceivedBits = slices.Clone(r.ReceivedBits)
	if r.Decoder != nil {
		dec := *r.Decoder
		c.Decoder = &dec
	}
	return &c
}

// release returns a Run session to the pool holding nothing of the trial
// it ran: the machine goes back to the machine pool, and the config
// (payload, trace), the latencies and the rendezvous binding are cleared,
// so the pool keeps no caller data alive.
func (s *Session) release() {
	s.putMachine()
	s.base, s.l.cfg = Config{}, Config{}
	s.l.lat = nil // latBuf keeps the capacity
	s.l.rv = nil
	s.l.rvStore.Init(nil)
	sessions.Put(s)
}

// Run executes one trial with the given seed (runner.TrialSeed derives
// per-trial seeds for sweep grids) and the session's base configuration.
// The returned Result borrows session buffers — see the Session ownership
// note.
func (s *Session) Run(seed uint64) (*Result, error) {
	cfg := s.base
	cfg.Seed = seed
	return s.RunConfig(cfg)
}

// RunConfig executes one trial with an explicit configuration, which must
// keep the session's mechanism and scenario but may vary everything else
// (parameters, payload, seed, sync length, ablation flags, trace). Sweeps
// use this to replay one channel substrate across a parameter grid.
func (s *Session) RunConfig(cfg Config) (*Result, error) {
	if s.closed {
		return nil, errors.New("core: session is closed")
	}
	if cfg.Mechanism != s.base.Mechanism || cfg.Scenario != s.base.Scenario {
		return nil, fmt.Errorf("core: session is pinned to %v/%v", s.base.Mechanism, s.base.Scenario)
	}
	par, syncLen, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	l := s.l
	l.cfg, l.par, l.m, l.syncLen = cfg, par, par.M(), syncLen
	l.payStart, l.payEnd, l.misses = 0, 0, 0
	l.trojanErr, l.spyErr = nil, nil
	if err := l.bindSymbols(); err != nil {
		return nil, err
	}

	l.prof = timing.ProfileFor(cfg.Mechanism.OS(), cfg.Scenario.Isolation)
	if cfg.Noiseless {
		l.prof = timing.Noiseless(cfg.Mechanism.OS(), cfg.Scenario.Isolation)
	}
	syscfg := osmodel.Config{Profile: l.prof, Seed: cfg.Seed, Trace: cfg.Trace,
		FaultRate: cfg.FaultRate, FaultSeed: cfg.FaultSeed}
	if s.sys != nil {
		// The pinned machine: reset in place and reseed. This is the whole
		// point of the session — trials 2..n rebuild nothing.
		s.sys.Reset(syscfg)
	} else {
		if pooled, ok := systems.Get(); ok {
			pooled.Reset(syscfg)
			s.sys = pooled
		} else {
			s.sys = osmodel.NewSystem(syscfg)
		}
		// Anchor the counter baseline at acquisition: a pooled machine
		// arrives with another session's cumulative history, which must
		// not leak into this session's KernelStats.
		s.statsOff = s.kernelCounters()
	}
	if err := l.arm(s.sys); err != nil {
		// arm fails before any process ran; the machine stays pinned and
		// the next trial's Reset restores it.
		return nil, err
	}
	if cfg.Recover {
		wp, wpat := l.watchdog()
		s.sys.ArmWatchdog(wp, wpat)
	}

	runErr := s.sys.Run()
	// Diagnose before teardown: the crash count and the wait-for snapshot
	// live on the machine, which releaseMachine scrubs.
	var crashes uint64
	if s.sys.Kernel().FaultsArmed() {
		crashes = s.sys.Kernel().FaultStats().Crashes
	}
	var waiters []string
	if runErr != nil && crashes == 0 {
		// Scoped so the errors.As target only heap-escapes on this cold
		// path, keeping steady-state trials allocation-free.
		var dl *sim.DeadlockError
		if errors.As(runErr, &dl) {
			waiters = s.sys.WaitSnapshot(nil)
		}
	}
	if runErr != nil || crashes > 0 {
		// A crashed-but-drained run still holds the dead process's
		// remains; scrub the machine exactly like a deadlocked trial so
		// later trials replay like fresh runs.
		s.releaseMachine()
	}
	if crashes > 0 {
		return nil, &CrashError{Crashes: crashes}
	}
	if l.trojanErr != nil {
		return nil, fmt.Errorf("core: trojan failed: %w", l.trojanErr)
	}
	if l.spyErr != nil {
		return nil, fmt.Errorf("core: spy failed: %w", l.spyErr)
	}
	if runErr != nil {
		var dl *sim.DeadlockError
		if !errors.As(runErr, &dl) {
			return nil, runErr
		}
		return nil, &DeadlockError{cause: runErr, Waiters: waiters}
	}

	res := &s.res
	*res = Result{Latencies: l.lat}
	s.decoded, s.bits, err = l.assemble(res, &s.dec, s.decoded, s.bits)
	return res, err
}

// KernelStats reports the session's cumulative kernel counters —
// coroutine switches into process bodies and symbol windows marked.
// replayedBits is always 0: the kernel has no replay fast path, and the
// result is kept so existing callers' three-value reads still compile.
// The counters are monotonic for the lifetime of the session: they
// survive the pinned machine being Released after a deadlocked trial
// (which clears the raw kernel counters) and exclude any history a
// pool-acquired machine arrived with. The bench harness depends on that
// monotonicity — it derives switches-per-bit from uint64 deltas between
// two reads, which would wrap to ~1.8e19 if a counter ever moved
// backwards. All zero before the first trial acquires a machine.
func (s *Session) KernelStats() (switches, replayedBits, totalBits uint64) {
	acc := s.statsAcc
	if s.sys != nil {
		cur := s.kernelCounters()
		acc.switches += cur.switches - s.statsOff.switches
		acc.windows += cur.windows - s.statsOff.windows
	}
	return acc.switches, 0, acc.windows
}

// Close returns the session's machine to the shared machine pool. The
// last trial's Result remains readable — its buffers belong to the
// session's own link — but the session must not run further trials.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.putMachine()
}

// putMachine hands the session's machine, if any, back to the machine
// pool, detached from the trial's trace and process bodies.
func (s *Session) putMachine() {
	if s.sys == nil {
		return
	}
	// The machine leaves with its raw counters (the pool's next tenant
	// re-anchors); keep this session's KernelStats readable and final.
	s.retireKernelCounters()
	s.sys.Detach()
	systems.Put(s.sys)
	s.sys = nil
}

// RunTrials runs one trial per seed over a single pinned session — the
// batched form of Run for Monte-Carlo cells that replay one configuration
// under many noise streams. visit receives each trial's borrowed Result
// and must extract what it keeps before returning; a trial or visit error
// aborts the batch.
func RunTrials(cfg Config, seeds []uint64, visit func(trial int, res *Result) error) error {
	s, err := NewSession(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	for i, seed := range seeds {
		res, err := s.Run(seed)
		if err != nil {
			return fmt.Errorf("core: trial %d (seed %d): %w", i, seed, err)
		}
		if err := visit(i, res); err != nil {
			return err
		}
	}
	return nil
}

// sessionKey identifies the channel substrate a session pins.
type sessionKey struct {
	mech      Mechanism
	scn       Scenario
	noiseless bool
}

// sessionCacheCap bounds how many sessions one worker holds — the full
// mechanism family times the scenarios a sweep mixes fits comfortably;
// anything beyond falls back to Run.
const sessionCacheCap = 32

// SessionCache holds one worker's sessions, keyed by (mechanism, scenario,
// noiselessness): sweep cells that share a channel substrate reuse one
// pinned machine and link even when their parameters, payloads and seeds
// differ. Map workers own exactly one cache each (runner.MapWith), so the
// borrowed-Result contract holds naturally: each trial's result is
// consumed on its worker before that worker starts its next trial.
type SessionCache struct {
	sessions map[sessionKey]*Session
}

// NewSessionCache builds an empty per-worker cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{sessions: make(map[sessionKey]*Session)}
}

// Run executes cfg on the worker's session for its substrate, creating the
// session on first use; with the cache full it falls back to Run (same
// output, caller-owned Result). Traced configurations run on the session
// too. The borrowed-Result contract of Session.RunConfig applies.
func (c *SessionCache) Run(cfg Config) (*Result, error) {
	key := sessionKey{mech: cfg.Mechanism, scn: cfg.Scenario, noiseless: cfg.Noiseless}
	s := c.sessions[key]
	if s == nil {
		if len(c.sessions) >= sessionCacheCap {
			return Run(cfg)
		}
		var err error
		s, err = NewSession(cfg)
		if err != nil {
			return nil, err
		}
		c.sessions[key] = s
	}
	return s.RunConfig(cfg)
}

// Close closes every session, handing their machines back to the shared
// machine pool so the next sweep's sessions (on any worker) amortize the
// same warmed structures.
func (c *SessionCache) Close() {
	//lint:allow detnondet sessions are closed independently; teardown order has no observable effect on output
	for key, s := range c.sessions {
		s.Close()
		delete(c.sessions, key)
	}
}
