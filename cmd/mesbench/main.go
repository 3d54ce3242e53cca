// Command mesbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mesbench -list
//	mesbench -exp table4
//	mesbench -exp crossmech -quick    # full family incl. Futex/CondVar/WriteSync
//	mesbench -exp fig9a -bits 40000 -seed 7
//	mesbench -all -quick
//	mesbench -all -workers 8
//	mesbench -exp fig9a -cpuprofile cpu.pprof -memprofile mem.pprof
//	mesbench -benchjson BENCH_PR5.json [-benchbaseline OLD.json]
//	mesbench -perfcheck BENCH_PR5.json
//
// Experiment parameter grids fan out across a worker pool (internal/runner)
// with worker-affine trial sessions (core.SessionCache): each worker pins
// one warmed simulated machine per channel substrate and consecutive cells
// only reset and reseed it. -workers bounds the pool and defaults to
// GOMAXPROCS. Output is bit-identical for any worker count, with sessions
// or machine pooling on or off. Interrupting (Ctrl-C) cancels the sweep in
// flight.
//
// -benchjson runs the performance-trajectory measurements (raw event-core
// throughput, one full transmission, one steady-state session trial, the
// Fig. 9 sweep at workers=1 and workers=GOMAXPROCS, and the full quick
// registry's wall-clock) and writes them as JSON; -benchbaseline embeds a
// previously written file as the "before" column, which is how each PR's
// BENCH_PR<n>.json records its speedup. -perfcheck re-measures the
// regression gates against a checked-in file: steady-state trials must
// stay allocation-free, the quick registry within 15% of its recorded
// wall-clock after normalizing for the machine's event-core speed, and
// the event core and registry must clear absolute machine-normalized
// floors (7M events/s, 130ms) that no multi-PR drift can creep past.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"mes/internal/core"
	"mes/internal/detect"
	"mes/internal/experiments"
	"mes/internal/runner"
	"mes/internal/sim"
)

func main() {
	// mesbench is a batch regenerator: its steady-state heap is a few MB
	// of pooled simulation machinery, so the default GOGC=100 runs a
	// collection every few MB of short-lived render garbage for no memory
	// benefit. Back off the GC unless the operator asked for a specific
	// setting.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	// All work happens in realMain so its defers — notably the pprof
	// writers — run before the process exits, even on failure paths.
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp        = flag.String("exp", "", "experiment name (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiments")
		bits       = flag.Int("bits", 0, "payload bits per measured point (default 20000)")
		seed       = flag.Uint64("seed", 1, "random seed (equal seeds replay identically)")
		quick      = flag.Bool("quick", false, "reduced payload for a fast pass")
		workers    = flag.Int("workers", 0, "parallel trials per experiment sweep (0 = GOMAXPROCS; any value yields identical output)")
		faultRate  = flag.Float64("faultrate", 0, "inject deterministic kernel faults at this per-consult rate into every trial (0 = off; the faultsweep experiment pins its own axis)")
		faultSeed  = flag.Uint64("faultseed", 0, "seed of the injected-fault substream (only with -faultrate)")
		benchJSON  = flag.String("benchjson", "", "write performance-trajectory measurements to this JSON file and exit")
		benchBase  = flag.String("benchbaseline", "", "embed this earlier -benchjson file as the before column")
		perfCheck  = flag.String("perfcheck", "", "re-measure the session-trial allocation and quick-registry gates against this measurement file and exit non-zero on regression")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *benchBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *perfCheck != "" {
		if err := runPerfCheck(*perfCheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.Paper)
		}
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := experiments.Options{Bits: *bits, Seed: *seed, Quick: *quick, Workers: *workers, Ctx: ctx,
		FaultRate: *faultRate, FaultSeed: *faultSeed}
	switch {
	case *all:
		for _, e := range experiments.Registry() {
			fmt.Printf("==== %s — %s ====\n", e.Name, e.Paper)
			out, err := e.Run(opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s\n", e.Name, failureMessage(err))
				if ctx.Err() != nil {
					return 1
				}
				continue
			}
			fmt.Println(out)
		}
	case *exp != "":
		e, err := experiments.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		out, err := e.Run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, failureMessage(err))
			return 1
		}
		fmt.Println(out)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// failureMessage classifies a sweep failure by core's typed error
// taxonomy: the sentinels survive every wrapping layer (trial context,
// runner.Map), so the exit message can say what killed the sweep instead
// of only where.
func failureMessage(err error) string {
	switch {
	case errors.Is(err, core.ErrCrashed):
		return fmt.Sprintf("trial lost a process to an injected crash: %v", err)
	case errors.Is(err, core.ErrDeadlock):
		return fmt.Sprintf("trial deadlocked: %v", err)
	case errors.Is(err, core.ErrSyncLoss):
		return fmt.Sprintf("trial lost symbol sync beyond recovery: %v", err)
	case errors.Is(err, core.ErrCalibration):
		return fmt.Sprintf("decoder calibration failed: %v", err)
	default:
		return err.Error()
	}
}

// benchResults is one measurement snapshot of the performance trajectory.
// Fields added by later schema revisions are zero in snapshots embedded
// from older baseline files.
type benchResults struct {
	KernelEventsPerSec      float64 `json:"kernel_events_per_sec"`
	KernelNsPerEvent        float64 `json:"kernel_ns_per_event"`
	KernelAllocsPerEvent    float64 `json:"kernel_allocs_per_event"`
	TransmissionNsPerOp     int64   `json:"transmission_ns_per_op"`
	TransmissionAllocsPerOp int64   `json:"transmission_allocs_per_op"`
	Fig9Workers1Ms          float64 `json:"fig9_workers1_ms"`
	Fig9WorkersNMs          float64 `json:"fig9_workersN_ms"`
	// mes-bench/v2: one kernel↔process control round trip (sim.SpawnPingPong)
	// and the defender-side trace scan (detect.BenchTrace).
	ContextSwitchNsPerOp float64 `json:"context_switch_ns_per_op,omitempty"`
	DetectEntriesPerSec  float64 `json:"detect_entries_per_sec,omitempty"`
	DetectAllocsPerScan  int64   `json:"detect_allocs_per_scan,omitempty"`
	// mes-bench/v3: the batched trial-session engine — one steady-state
	// session trial (core.Session.Run after warm-up; its allocation count
	// must be zero) and the full quick registry's in-process wall-clock
	// (every experiment, caches cold — the `-all -quick` number minus
	// process startup).
	SessionTrialNsPerOp    int64   `json:"session_trial_ns_per_op,omitempty"`
	TrialAllocsSteadyState float64 `json:"trial_allocs_steady_state"`
	RegistryQuickMs        float64 `json:"registry_quick_ms,omitempty"`
	// mes-bench/v4: coroutine switches per transmitted symbol on the
	// standard session workload (the protocol's irreducible scheduling
	// cost). The replay_hit_rate key older v4/v5 files carry is ignored.
	SwitchesPerBit float64 `json:"switches_per_bit,omitempty"`
	// mes-bench/v5: one raw resume-layer round trip (sim.ResumeRoundTrips)
	// — the kernel↔process handoff alone, no events, heap or timing. Its
	// delta against context_switch_ns_per_op is the scheduler's own
	// overhead per switch.
	ResumeNsPerOp float64 `json:"resume_ns,omitempty"`
}

// benchFile is the on-disk BENCH_PR<n>.json shape.
type benchFile struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Before     *benchResults `json:"before,omitempty"`
	After      benchResults  `json:"after"`
}

// benchSchemas are the accepted measurement-file revisions: v2 added the
// context-switch and detector rows, v3 the trial-session and quick-
// registry rows, v4 the switches-per-bit row, v5 the raw resume
// round-trip row. Older files remain valid baselines — their new-row
// columns read as zero ("not measured").
var benchSchemas = map[string]bool{
	"mes-bench/v1": true, "mes-bench/v2": true,
	"mes-bench/v3": true, "mes-bench/v4": true,
	"mes-bench/v5": true,
}

// benchSchema is the revision this binary writes.
const benchSchema = "mes-bench/v5"

// loadBaseline reads a checked-in measurement file and rejects anything
// that is not one of the accepted mes-bench schemas. Keys a revision no
// longer writes are ignored by encoding/json, so older files still load.
func loadBaseline(file string) (benchFile, error) {
	var base benchFile
	raw, err := os.ReadFile(file)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("parse baseline %s: %w", file, err)
	}
	if !benchSchemas[base.Schema] {
		return base, fmt.Errorf("baseline %s: schema %q is not a mes-bench measurement file", file, base.Schema)
	}
	return base, nil
}

// writeBenchJSON runs the trajectory measurements and writes file. If
// baseline names an earlier measurement file, its "after" snapshot is
// embedded as this file's "before".
func writeBenchJSON(file, baseline string) error {
	out := benchFile{
		Schema:     benchSchema,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if baseline != "" {
		base, err := loadBaseline(baseline)
		if err != nil {
			return err
		}
		out.Before = &base.After
	}

	// Raw event-core throughput: the SpawnBenchLoad workload, where every
	// simulated sleep pays the full scheduler hot path.
	kernel := measureKernelBench()
	if kernel.N == 0 {
		return fmt.Errorf("kernel benchmark failed (zero iterations); run `go test -bench BenchmarkKernelEvents ./internal/sim` for the failure")
	}
	out.After.KernelNsPerEvent = float64(kernel.T.Nanoseconds()) / float64(kernel.N)
	out.After.KernelEventsPerSec = 1e9 / out.After.KernelNsPerEvent
	out.After.KernelAllocsPerEvent = float64(kernel.MemAllocs) / float64(kernel.N)

	// One kernel↔process control round trip (two coroutine switches plus
	// the queue round trip) — the handoff cost the coroutine rewrite
	// targets.
	cswitch := measureContextSwitch()
	if cswitch.N == 0 {
		return fmt.Errorf("context-switch benchmark failed; run `go test -bench BenchmarkContextSwitch ./internal/sim` for the failure")
	}
	out.After.ContextSwitchNsPerOp = float64(cswitch.T.Nanoseconds()) / float64(cswitch.N)

	// The bare resume layer: one coroutine handoff round trip with no
	// kernel around it. The context-switch row minus this row is what the
	// scheduler itself adds per switch.
	resume := measureResume()
	if resume.N == 0 {
		return fmt.Errorf("resume benchmark failed; run `go test -bench BenchmarkResumeRoundTrip ./internal/sim` for the failure")
	}
	out.After.ResumeNsPerOp = float64(resume.T.Nanoseconds()) / float64(resume.N)

	// The defender-side trace scan over the standard synthetic trace.
	const detectEntries = 8192
	trace := detect.BenchTrace(detectEntries)
	analyzer := detect.NewAnalyzer()
	scan := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if scores := analyzer.Analyze(trace); len(scores) == 0 {
				b.Fatal("no resources scored")
			}
		}
	})
	if scan.N == 0 {
		return fmt.Errorf("detect benchmark failed; run `go test -bench BenchmarkDetectAnalyze ./internal/detect` for the failure")
	}
	out.After.DetectEntriesPerSec = float64(detectEntries) * float64(scan.N) / scan.T.Seconds()
	out.After.DetectAllocsPerScan = scan.AllocsPerOp()

	// One complete transmission (the sweep cell unit) — the same workload
	// as BenchmarkTransmission, so the trajectory and `go test -bench`
	// always measure the same thing.
	cfg := core.BenchConfig()
	trans := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if trans.N == 0 {
		return fmt.Errorf("transmission benchmark failed (zero iterations); run `go test -bench BenchmarkTransmission .` for the failure")
	}
	out.After.TransmissionNsPerOp = trans.NsPerOp()
	out.After.TransmissionAllocsPerOp = trans.AllocsPerOp()

	// One steady-state session trial — the batched sweep-cell unit (same
	// workload as BenchmarkSessionTrials) — plus its allocation count,
	// which the perf smoke pins at zero.
	sessNs, sessAllocs, err := measureSessionTrial(true)
	if err != nil {
		return err
	}
	out.After.SessionTrialNsPerOp, out.After.TrialAllocsSteadyState = sessNs, sessAllocs

	// The protocol's structural number: coroutine switches per symbol on
	// the same session workload.
	spb, err := measureSessionProtocol()
	if err != nil {
		return err
	}
	out.After.SwitchesPerBit = spb

	// The Fig. 9 sweep (42 independent transmissions) at one worker and at
	// GOMAXPROCS workers: the registry-level wall-clock the parallel runner
	// and the event core jointly determine. Caches are cleared per
	// measurement so the second worker count (and the registry measurement
	// below) never times another run's memoized trials.
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		experiments.ResetCaches()
		start := time.Now()
		if _, err := experiments.Fig9(experiments.Options{Bits: 2000, Seed: 1, Workers: w}); err != nil {
			return err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if w == 1 {
			out.After.Fig9Workers1Ms = ms
		}
		// On a single-core machine both measurements are the same pool size;
		// record the second run either way so the column is never zero.
		if w == runtime.GOMAXPROCS(0) {
			out.After.Fig9WorkersNMs = ms
		}
	}

	// The full quick registry, caches cold: the in-process wall-clock of
	// `mesbench -all -quick`.
	registryMs, err := measureRegistryQuick()
	if err != nil {
		return err
	}
	out.After.RegistryQuickMs = registryMs

	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.0f events/s, %.2f allocs/event, switch %.0fns, resume %.0fns, transmission %dns/%d allocs, session trial %dns/%.0f allocs, %.2f switches/bit, detect %.0f entries/s, fig9 %0.0fms (w=1) / %0.0fms (w=%d), registry quick %.0fms\n",
		file, out.After.KernelEventsPerSec, out.After.KernelAllocsPerEvent,
		out.After.ContextSwitchNsPerOp, out.After.ResumeNsPerOp,
		out.After.TransmissionNsPerOp, out.After.TransmissionAllocsPerOp,
		out.After.SessionTrialNsPerOp, out.After.TrialAllocsSteadyState,
		out.After.SwitchesPerBit,
		out.After.DetectEntriesPerSec,
		out.After.Fig9Workers1Ms, out.After.Fig9WorkersNMs, runtime.GOMAXPROCS(0),
		out.After.RegistryQuickMs)
	return nil
}

// measureKernelBench runs the raw event-core workload (the same shape as
// BenchmarkKernelEvents). writeBenchJSON records it and runPerfCheck
// re-measures it as the machine-speed proxy, so both must measure the
// identical workload.
func measureKernelBench() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel()
		sim.SpawnBenchLoad(k, 4, b.N)
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// measureContextSwitch runs the kernel↔process round-trip workload (the
// same shape as BenchmarkContextSwitch). Its cost is dominated by the Go
// runtime's coroutine switch — the irreducible floor under every
// simulated event — so runPerfCheck uses it as a machine-speed proxy:
// it tracks the box and the shared scheduler path, making the normalized
// gates sensitive to regressions in everything else.
func measureContextSwitch() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		k := sim.NewKernel()
		sim.SpawnPingPong(k, b.N/2+1)
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// measureResume runs the bare resume-layer round trip (the same shape as
// BenchmarkResumeRoundTrip): a standalone coroutine handle transferring
// control in and out, with no kernel, events or timing model around it.
func measureResume() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		sim.ResumeRoundTrips(b.N)
	})
}

// measureSessionTrial counts a steady-state session trial's per-trial
// heap allocations on the standard benchmark workload (GC disabled during
// the count, exactly like the TestSessionAllocsSteadyStateZero gate) and,
// when timed is set, also measures its wall-clock. runPerfCheck only
// needs the allocation gate and skips the timing loop.
func measureSessionTrial(timed bool) (nsPerOp int64, allocsPerTrial float64, err error) {
	s, err := core.NewSession(core.BenchConfig())
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	trial := 0
	run := func() error {
		trial++
		_, err := s.Run(runner.TrialSeed(1, trial))
		return err
	}
	// Warm-up: trial 1 builds the machine, trial 2 rebuilds the recycled
	// coroutines.
	for i := 0; i < 2; i++ {
		if err := run(); err != nil {
			return 0, 0, err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocsPerTrial = testing.AllocsPerRun(20, func() {
		if e := run(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if !timed {
		return 0, allocsPerTrial, nil
	}
	const trials = 200
	start := time.Now()
	for i := 0; i < trials; i++ {
		if err := run(); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start).Nanoseconds() / trials, allocsPerTrial, nil
}

// measureSessionProtocol reads the session's cumulative kernel counters
// across a batch of steady-state trials on the standard benchmark
// workload: coroutine switches per transmitted symbol. The first trial
// is excluded so spawn-time switches do not dilute the steady-state
// number. The deltas rely on Session.KernelStats being monotonic: the
// session folds counters into an accumulator before a deadlocked trial's
// recovery clears them (and anchors a pooled machine's foreign history
// at acquisition), so a mid-batch machine release can no longer make the
// second read smaller and wrap these uint64 subtractions to ~1.8e19.
func measureSessionProtocol() (float64, error) {
	s, err := core.NewSession(core.BenchConfig())
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if _, err := s.Run(runner.TrialSeed(1, 1)); err != nil {
		return 0, err
	}
	sw0, _, bits0 := s.KernelStats()
	const trials = 50
	for i := 2; i < 2+trials; i++ {
		if _, err := s.Run(runner.TrialSeed(1, i)); err != nil {
			return 0, err
		}
	}
	sw1, _, bits1 := s.KernelStats()
	if bits1 == bits0 {
		return 0, fmt.Errorf("session protocol measurement saw no symbol windows")
	}
	return float64(sw1-sw0) / float64(bits1-bits0), nil
}

// measureRegistryQuick renders every registry experiment in Quick mode
// with cold caches — the in-process equivalent of `mesbench -all -quick` —
// and returns the wall-clock in milliseconds (best of three, so a noisy
// neighbour on a shared box does not masquerade as a regression).
func measureRegistryQuick() (float64, error) {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		experiments.ResetCaches()
		start := time.Now()
		for _, e := range experiments.Registry() {
			if _, err := e.Run(experiments.Options{Quick: true, Seed: 1}); err != nil {
				return 0, fmt.Errorf("registry %s: %w", e.Name, err)
			}
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// Absolute performance floors enforced by runPerfCheck, stated for the
// reference box that wrote the checked-in baseline and rescaled to the
// measuring machine by the raw coroutine round-trip cost (see
// measureContextSwitch). Unlike the relative 15% gate — whose baseline
// ratchets with every PR's measurement file — these are fixed lines that
// a slow multi-PR drift cannot creep past.
const (
	// kernelEventsFloorPerSec: the event core must sustain at least this
	// many events per second, normalized to the reference box. PR 9
	// (hand-rolled resume layer, batched replay windows) re-measured
	// 6.9–8.3M events/s across nine runs on a noisier container than PR
	// 8's 8.2–8.6M — the bare-event benchmark has no replay marks, so
	// batching never engages on it, and the resume layer's scheduler
	// overhead was already the few-ns delta between resume_ns (~109ns)
	// and context_switch_ns_per_op (~120ns). The floor therefore stays
	// at the PR 8 level: the ISSUE 9 rule is to raise floors only to
	// levels the container actually clears, and the normalized
	// measurement grazes 7.5M on noisy runs already. The 10M stretch
	// target remains out of reach while the iter.Pull coroutine transfer
	// itself costs ~110ns (the linker's blockedLinknames list keeps
	// runtime.coroswitch behind iter; profiles still put the transfer
	// plus its CAS state machine at ~26% of every trial). The ping-pong
	// proxy shares the scheduler path with the event benchmark, so their
	// ratio is insensitive to shared-path changes — this floor is a
	// coarse backstop against regressions in the parts the proxy does
	// not touch (Sleep, the heap, delivery); the registry budget below
	// is the sharp absolute gate.
	kernelEventsFloorPerSec = 7.5e6
	// registryQuickBudgetMs bounds the full quick-registry wall-clock on
	// the reference box. PR 9 measured 100–142ms single-shot (best-of-
	// three as perfcheck runs it: 100–126ms) across nine runs on a noisy
	// container — the sweep is coroswitch- and timing-draw-bound, so
	// batched count-only verification does not move wall-clock, and the
	// 70ms stretch target still needs a cheaper coroutine transfer, not
	// less verification. The budget stays at the PR 8 level for the same
	// raise-only-what-clears rule as the events floor: the container's
	// noisy-run best-of-three already brushes 126ms. Boxes slower than
	// the reference get a proportionally larger budget; faster ones keep
	// this one (tightening it by a fast switch sample would let
	// uncorrelated timer noise fail a healthy run).
	registryQuickBudgetMs = 125.0
)

// runPerfCheck re-measures the perf gates against a checked-in
// measurement file: steady-state session trials must stay at zero heap
// allocations, the quick registry must not be more than 15% slower than
// the baseline's registry_quick_ms, and (PR 7) the event core and the
// registry must clear the absolute machine-normalized floors above.
// Relative gates are skipped for pre-v3 baselines, which did not record
// the rows; the absolute gates are skipped when the baseline lacks the
// context-switch row needed to normalize. `make perf-smoke` runs this in
// CI.
func runPerfCheck(file string) error {
	base, err := loadBaseline(file)
	if err != nil {
		return err
	}
	_, allocs, err := measureSessionTrial(false)
	if err != nil {
		return err
	}
	if allocs > 0 {
		return fmt.Errorf("perfcheck: steady-state session trial allocates %.1f/op, want 0", allocs)
	}
	if base.After.RegistryQuickMs <= 0 {
		fmt.Printf("perfcheck ok: 0 allocs/trial; baseline %s predates registry_quick_ms, wall-clock gates skipped\n", file)
		return nil
	}
	ms, err := measureRegistryQuick()
	if err != nil {
		return err
	}
	// Best of three, like measureRegistryQuick and for the same reason: a
	// noisy neighbour during one sample must not masquerade as an event-
	// core regression. PR 9 observed the kernel bench and the switch proxy
	// decoupling under load (kernel 6.9M events/s while the switch held
	// ~118ns), which tripped the absolute floor on a healthy build.
	kernelNs := 0.0
	for rep := 0; rep < 3; rep++ {
		if kernel := measureKernelBench(); kernel.N > 0 {
			ns := float64(kernel.T.Nanoseconds()) / float64(kernel.N)
			if kernelNs == 0 || ns < kernelNs {
				kernelNs = ns
			}
		}
	}
	// The baseline was measured on one specific machine; CI runners and
	// contributor laptops run at different speeds. Normalize by the raw
	// event-core throughput — re-measured here, recorded there — so the
	// gate tracks "registry work per kernel event", which a sweep-layer
	// regression moves and a slower machine does not. (The trade-off: a
	// regression that slows the event core itself proportionally is
	// invisible to this ratio — the absolute events/s floor below closes
	// exactly that hole.)
	scale := 1.0
	if base.After.KernelNsPerEvent > 0 && kernelNs > 0 {
		scale = kernelNs / base.After.KernelNsPerEvent
	}
	limit := base.After.RegistryQuickMs * scale * 1.15
	if ms > limit {
		return fmt.Errorf("perfcheck: quick registry took %.0fms, more than 15%% over the checked-in %.0fms baseline (machine-speed scale %.2f, limit %.0fms)",
			ms, base.After.RegistryQuickMs, scale, limit)
	}
	// Absolute floors, normalized by the coroutine round-trip cost: it is
	// nearly pure Go-runtime switch time, so the ratio to the baseline
	// box measures the machine, not our code. A slower box therefore gets
	// a proportionally lower events/s floor and a larger registry budget;
	// our own regressions move the measured side only and trip the gates.
	if swb := base.After.ContextSwitchNsPerOp; swb > 0 && kernelNs > 0 {
		sw := measureContextSwitch()
		if sw.N == 0 {
			return fmt.Errorf("context-switch benchmark failed; run `go test -bench BenchmarkContextSwitch ./internal/sim` for the failure")
		}
		swNs := float64(sw.T.Nanoseconds()) / float64(sw.N)
		speed := swNs / swb // >1 on boxes slower than the reference
		normEvents := 1e9 / kernelNs * speed
		if normEvents < kernelEventsFloorPerSec {
			return fmt.Errorf("perfcheck: event core at %.2fM events/s normalized (%.2fM measured, switch speed %.2f), below the %.1fM floor",
				normEvents/1e6, 1e9/kernelNs/1e6, speed, kernelEventsFloorPerSec/1e6)
		}
		budget := registryQuickBudgetMs * math.Max(1, speed)
		if ms > budget {
			return fmt.Errorf("perfcheck: quick registry took %.0fms, over the absolute %.0fms budget (%.0fms reference budget, switch speed %.2f)",
				ms, budget, registryQuickBudgetMs, speed)
		}
		fmt.Printf("perfcheck ok: 0 allocs/trial, registry quick %.0fms (relative limit %.0fms, absolute budget %.0fms), event core %.2fM events/s normalized (floor %.1fM)\n",
			ms, limit, budget, normEvents/1e6, kernelEventsFloorPerSec/1e6)
		return nil
	}
	fmt.Printf("perfcheck ok: 0 allocs/trial, registry quick %.0fms (baseline %.0fms, machine-speed scale %.2f, limit %.0fms); baseline lacks context_switch_ns_per_op, absolute floors skipped\n",
		ms, base.After.RegistryQuickMs, scale, limit)
	return nil
}
