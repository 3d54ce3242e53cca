package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/detect"
	"mes/internal/experiments"
	"mes/internal/runner"
	"mes/internal/sim"
)

// Workload input sizes (payload bits per transmission) and the fault rate
// of mech-faults.
const (
	steadyBits = 1000
	faultBits  = 400
	detectBits = 1000
	faultRate  = 0.005
	// paperBERBound is the paper's channel-quality bar (BER < 1%), which
	// every steady-event round must meet.
	paperBERBound = 0.01
)

// workload is one closed-loop input mix: a single client runs op i+1
// only after op i has completed, and op i's inputs depend only on the
// seed and i, so every round replays the same op sequence.
type workload struct {
	name string
	// prefix is how many leading ops every round completes whatever its
	// timed window; their outcomes are compared across rounds and give
	// the exact per-layer counts.
	prefix int
	// window is how many consecutive ops make one window when the
	// quietest window of a round is sought (a few tenths of a second).
	window int
	// tailQ is the quantile reported as op_tail_ms: the highest one with
	// at least ten samples beyond it in a run of the default length.
	tailQ float64
	// probe is the transmission whose payload, timing profile and
	// measured latencies the microbenchmarks replay.
	probe func(seed uint64) core.Config
	open  func(seed uint64, prefix int) (instance, error)
}

// instance is one round's live state for a workload.
type instance interface {
	// op runs op i, recording spans into t (nil when untraced) and
	// outcomes into r. An error is an op that failed outside the
	// workload's expected outcomes.
	op(i int, t *tracer, r *roundResult) error
	// finish runs the round's closing checks, outside any timed op.
	finish(round int, r *roundResult) error
	close()
}

var workloads = []*workload{
	{name: "steady-event", prefix: 1000, window: 250, tailQ: 0.99, probe: steadyConfig, open: openSteady},
	{name: "mech-faults", prefix: 200, window: 50, tailQ: 0.99, probe: faultsProbe, open: openFaults},
	{name: "traced-detect", prefix: 50, window: 20, tailQ: 0.99, probe: detectProbe, open: openDetect},
	{name: "registry-quick", prefix: 1, window: 4, tailQ: 0.90, probe: registryProbe, open: openRegistry},
}

// prefixOr returns override when it is positive, else w's own prefix.
func (w *workload) prefixOr(override int) int {
	if override > 0 {
		return override
	}
	return w.prefix
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// payload generates an n-bit payload from the seed with exactly n/2 ones,
// shuffled. Balanced payloads keep the transmission rate, which depends
// on the share of slow symbols, from varying with the seed.
func payload(seed uint64, n int) codec.Bits {
	rng := sim.NewRNG(seed ^ 0x6d65736265)
	b := make(codec.Bits, n)
	for i := 0; i < n/2; i++ {
		b[i] = 1
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// errClass maps a failed transmission to its core error class; ok is
// false for errors outside the taxonomy.
func errClass(err error) (class byte, ok bool) {
	switch {
	case errors.Is(err, core.ErrCrashed):
		return classCrashed, true
	case errors.Is(err, core.ErrDeadlock):
		return classDeadlock, true
	case errors.Is(err, core.ErrSyncLoss):
		return classSyncLoss, true
	case errors.Is(err, core.ErrCalibration):
		return classCalibration, true
	}
	return 0, false
}

// transmitted records a completed transmission: its bits go into the
// round's BER check and, within the prefix, into the exact sums.
func transmitted(i, prefix int, res *core.Result, r *roundResult) {
	r.BitErrors += int64(res.BitErrors)
	r.Bits += int64(len(res.ReceivedBits))
	if i < prefix {
		r.classes = append(r.classes, classOK)
		r.Exact.Completed++
		r.Exact.BERSum += res.BER
		r.Exact.TRSum += res.TRKbps
		r.Exact.Resyncs += res.Resyncs
		if !res.SyncOK {
			r.Exact.SyncFails++
		}
	}
}

// steady-event: one Event/Local session replays trial after trial, the
// unit every sweep amortizes.

func steadyConfig(seed uint64) core.Config {
	return core.Config{Mechanism: core.Event, Scenario: core.Local(), Payload: payload(seed, steadyBits)}
}

type steady struct {
	s         *core.Session
	seed      uint64
	prefix    int
	sw0, rep0 uint64
	win0      uint64
}

func openSteady(seed uint64, prefix int) (instance, error) {
	s, err := core.NewSession(steadyConfig(seed))
	if err != nil {
		return nil, err
	}
	return &steady{s: s, seed: seed, prefix: prefix}, nil
}

func (d *steady) op(i int, t *tracer, r *roundResult) error {
	t.begin("core.Session.Run")
	res, err := d.s.Run(runner.TrialSeed(d.seed, i))
	t.end()
	if err != nil {
		return err
	}
	transmitted(i, d.prefix, res, r)
	// Kernel counters over ops 1..prefix-1: op 0 spawns the machine.
	switch i {
	case 0:
		d.sw0, d.rep0, d.win0 = d.s.KernelStats()
	case d.prefix - 1:
		sw, rep, win := d.s.KernelStats()
		r.Exact.Switches, r.Exact.Replayed, r.Exact.Windows = sw-d.sw0, rep-d.rep0, win-d.win0
	}
	return nil
}

func (d *steady) finish(_ int, r *roundResult) error {
	if ber := float64(r.BitErrors) / float64(r.Bits); ber > paperBERBound {
		r.problem("steady-event: round BER %.3f%% is above the paper's 1%% bound", 100*ber)
	}
	return nil
}

func (d *steady) close() { d.s.Close() }

// mech-faults: one SessionCache sweeps the whole mechanism family with
// the fault plane armed and recovery on.

// family is the mechanism family mech-faults and traced-detect sweep: op
// i runs transmissions 9i..9i+8, one on each mechanism. Timing a whole
// sweep keeps the op latency unimodal; single transmissions form nine
// clusters whose median jumps between them as the seed shifts the mix.
var family = core.Mechanisms()

// familyConfig is transmission j of a family sweep.
func familyConfig(seed uint64, j int, pay codec.Bits) core.Config {
	return core.Config{Mechanism: family[j%len(family)], Scenario: core.Local(), Payload: pay,
		Seed: runner.TrialSeed(seed, j)}
}

func faultsConfig(seed uint64, j int, pay codec.Bits) core.Config {
	cfg := familyConfig(seed, j, pay)
	cfg.FaultRate, cfg.FaultSeed, cfg.Recover = faultRate, seed, true
	return cfg
}

// faultsProbe is the first transmission without faults or recovery, so it
// always completes and decodes in one block.
func faultsProbe(seed uint64) core.Config { return familyConfig(seed, 0, payload(seed, faultBits)) }

type faults struct {
	sc     *core.SessionCache
	seed   uint64
	prefix int
	pay    codec.Bits
}

func openFaults(seed uint64, prefix int) (instance, error) {
	return &faults{sc: core.NewSessionCache(), seed: seed, prefix: prefix, pay: payload(seed, faultBits)}, nil
}

func (d *faults) op(i int, t *tracer, r *roundResult) error {
	for k := range family {
		j := i*len(family) + k
		t.begin("core.SessionCache.Run")
		res, err := d.sc.Run(faultsConfig(d.seed, j, d.pay))
		t.end()
		if err != nil {
			class, ok := errClass(err)
			if !ok {
				return err
			}
			// A typed failure is the fault plane's expected outcome, not a
			// harness failure; it is compared across rounds instead.
			if i < d.prefix {
				r.classes = append(r.classes, class)
			}
			continue
		}
		transmitted(i, d.prefix, res, r)
	}
	return nil
}

func (d *faults) finish(int, *roundResult) error { return nil }

func (d *faults) close() { d.sc.Close() }

// traced-detect: one-shot traced transmissions over the family, each
// trace scanned by the detector.

func detectProbe(seed uint64) core.Config { return familyConfig(seed, 0, payload(seed, detectBits)) }

type detector struct {
	a      *detect.Analyzer
	seed   uint64
	prefix int
	pay    codec.Bits
	missed int
}

func openDetect(seed uint64, prefix int) (instance, error) {
	return &detector{a: detect.NewAnalyzer(), seed: seed, prefix: prefix, pay: payload(seed, detectBits)}, nil
}

func (d *detector) op(i int, t *tracer, r *roundResult) error {
	for k := range family {
		cfg := familyConfig(d.seed, i*len(family)+k, d.pay)
		t.begin("sim.NewTrace")
		cfg.Trace = sim.NewTrace(0)
		t.end()
		t.begin("core.Run")
		res, err := core.Run(cfg)
		t.end()
		if err != nil {
			return err
		}
		t.begin("detect.Analyzer.Analyze")
		scores := d.a.Analyze(cfg.Trace.Entries())
		t.end()
		// Scores come most suspicious first.
		flagged := len(scores) > 0 && scores[0].Suspicion >= detect.Threshold
		if !flagged && len(cfg.Mechanism.TraceEvents()) > 0 {
			d.missed++
		}
		transmitted(i, d.prefix, res, r)
		if i < d.prefix {
			r.Exact.TraceEntries += int64(cfg.Trace.Len())
			if flagged {
				r.Exact.Flagged++
			}
		}
	}
	return nil
}

func (d *detector) finish(_ int, r *roundResult) error {
	if d.missed > 0 {
		r.problem("traced-detect: %d op(s) on a traced mechanism were not flagged at threshold %.2f", d.missed, detect.Threshold)
	}
	return nil
}

func (d *detector) close() {}

// registry-quick: every registry artifact in quick mode, caches cold,
// fanned out over all CPUs.

// registryProbe stands for the registry's channel cells: an Event/Local
// transmission at the quick registry's 2000-bit payload size.
func registryProbe(seed uint64) core.Config {
	return core.Config{Mechanism: core.Event, Scenario: core.Local(), Payload: payload(seed, 2000)}
}

type registry struct {
	exps  []experiments.Experiment
	spans []string // span name per experiment
	opt   experiments.Options
	first []byte // the round's first pass, which every later pass must match
}

func openRegistry(seed uint64, _ int) (instance, error) {
	d := &registry{exps: experiments.Registry(),
		opt: experiments.Options{Quick: true, Seed: seed, Workers: runtime.NumCPU()}}
	for _, e := range d.exps {
		d.spans = append(d.spans, "experiments."+e.Name)
	}
	return d, nil
}

// pass renders the whole registry from cold caches into one output.
func (d *registry) pass(opt experiments.Options, t *tracer) ([]byte, error) {
	t.begin("experiments.ResetCaches")
	experiments.ResetCaches()
	t.end()
	var out bytes.Buffer
	for i, e := range d.exps {
		t.begin(d.spans[i])
		text, err := e.Run(opt)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(&out, "==== %s — %s ====\n%s\n", e.Name, e.Paper, text)
	}
	return out.Bytes(), nil
}

func (d *registry) op(i int, t *tracer, r *roundResult) error {
	out, err := d.pass(d.opt, t)
	if err != nil {
		return err
	}
	if d.first == nil {
		d.first = out
	} else if !bytes.Equal(out, d.first) {
		r.problem("registry-quick: pass %d output differs from the round's first pass", i)
	}
	return nil
}

// finish renders one single-worker pass in the first round (worker count
// must not change the output) and records the Table IV means as the
// registry's channel figures; the table's cells are memoized by the last
// pass, so reading them costs no new transmissions.
func (d *registry) finish(round int, r *roundResult) error {
	if round == 0 {
		one := d.opt
		one.Workers = 1
		out, err := d.pass(one, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, d.first) {
			r.problem("registry-quick: the Workers: 1 pass differs from the Workers: %d passes", d.opt.Workers)
		}
	}
	rows, err := experiments.Table4(d.opt)
	if err != nil {
		return err
	}
	for _, row := range rows {
		r.Exact.Completed++
		r.Exact.BERSum += row.BERPct / 100
		r.Exact.TRSum += row.TRKbps
	}
	return nil
}

func (d *registry) close() {}
