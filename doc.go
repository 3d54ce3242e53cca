// Package mes is a Go reproduction of "MES-Attacks: Software-Controlled
// Covert Channels based on Mutual Exclusion and Synchronization" (Shen,
// Zhang, Qu — DAC 2023, arXiv:2211.11855).
//
// It provides:
//
//   - nine covert channels built on OS mutual-exclusion and
//     synchronization mechanisms: the paper's six — flock, FileLockEX,
//     Mutex, Semaphore (contention) and Event, WaitableTimer
//     (cooperation) — plus an extension family generalizing the recipe
//     the way §IV.G predicts: Futex (a futex(2) lock word, contention),
//     CondVar (a process-shared pthread condition variable, cooperation)
//     and WriteSync (a page-cache/fsync journal channel in the style of
//     Sync+Sync, arXiv:2309.07657, and Write+Sync, arXiv:2312.11501).
//     All run on a deterministic discrete-event model of the OS
//     substrates (Windows kernel objects, the Linux fd/file/i-node
//     tables and journal, sandboxes and VMs), and every layer above the
//     channel core is table-driven over Mechanisms(), so the family is
//     an extension point rather than a closed enum;
//   - the paper's three threat scenarios: local, cross-sandbox, cross-VM
//     (with the hypervisor visibility rules that make only file-backed
//     channels survive VM isolation);
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation (see internal/experiments and cmd/mesbench);
//   - a deterministic batch runner (internal/runner) that the harness uses
//     to fan each experiment's parameter grid across a GOMAXPROCS-bounded
//     worker pool: every cell of a sweep owns an independent simulation
//     kernel, trial configs (payload, seed, parameters) are frozen before
//     fan-out, and per-trial seeds are derived from grid indices, so
//     results are bit-identical for any worker count (cmd/mesbench's
//     -workers flag, experiments.Options.Workers). A memoizing cache keyed
//     by config fingerprint lets registry entries that share a computation
//     (fig9a/fig9b, table2/table3) run it once;
//   - a wall-clock backend (internal/realtime) that runs the same protocol
//     shapes on real goroutines and Go sync primitives.
//
// # Performance
//
// Every experiment replays through internal/sim's discrete-event kernel,
// so its per-event and per-context-switch costs bound the whole registry's
// wall-clock. The event core is allocation-free and scheduler-free on its
// hot paths:
//
//   - The event queue is a value-typed 4-ary min-heap ([]event ordered by
//     time with FIFO sequence-number tie-breaks): pushing an event is a
//     slice append, with no per-event pointer allocation and no
//     container/heap interface boxing.
//   - Events are tagged rather than closures: process dispatches and
//     wake-ups — the dominant traffic behind Sleep, Advance, Exec, Yield
//     and Wake — are encoded as (kind, proc, value), so scheduling them
//     allocates nothing. Only the rare generic Kernel.At callers carry a
//     fn closure.
//   - The kernel↔process handoff is a coroutine switch through a
//     hand-rolled resume layer (sim's coroHandle, PR 9): start/transfer/
//     cancel/drop are an explicit protocol — a resume loop with an idle
//     park and a cancellation unwind — built over a raw coroutine
//     transfer. The transfer itself still rides iter.Pull (which compiles
//     to runtime.coroswitch): the Go linker's blockedLinknames list
//     restricts runtime.newcoro/coroswitch pulls to package iter, so a
//     fully raw backend is off the table without forking the toolchain;
//     the handle keeps the protocol logic out of iter's closure plumbing
//     and gives the kernel one seam to swap if that restriction ever
//     lifts. Dispatch resumes the body's coroutine and a blocking op
//     yields straight back, a direct goroutine-to-goroutine transfer with
//     no Go-scheduler park/unpark. The old single-slot channel handoff
//     paid chanparkcommit twice per switch (~640ns/round trip); the
//     coroutine transfer does the same round trip in ~190ns at PR 5,
//     ~110ns now (BenchmarkContextSwitch), and the bare resume round trip
//     with no kernel around it is ~118ns (BenchmarkResumeRoundTrip, the
//     resume_ns trajectory row) — the scheduler's own overhead per switch
//     is the few-ns delta between those two rows. On recycling kernels
//     (any kernel that has been Reset — the pooled-machine pattern)
//     coroutines are persistent: a finished process parks in an idle
//     yield and the next spawn reuses it allocation-free. One-shot
//     kernels let each coroutine exit with its body, so dropped kernels
//     leave no goroutines behind; Reset unwinds mid-wait bodies (running
//     their defers), Kernel.Release tears a machine down entirely, and
//     the machine pool is an explicitly bounded free list (runner.Pool)
//     that releases evicted machines rather than letting the GC shed
//     them — a parked goroutine's stack would otherwise pin the machine
//     forever.
//   - A running process that would be the very next thing popped — no
//     queued event strictly earlier, no tie — just advances the clock and
//     keeps running: no event, no context switch at all.
//   - Dispatching itself migrates (PR 5): while Kernel.Run drives the
//     simulation, a process that blocks keeps the scheduler loop running
//     on its own goroutine and switches straight to the next runnable
//     process, so the block→wake ping-pong every channel symbol performs
//     costs one coroutine switch instead of the two a round trip through
//     the kernel goroutine paid. Events for a process an active resume
//     chain is standing on unwind cooperatively to their target; body
//     panics are captured at their origin (runBody) and re-raised from
//     Run with their original value, which keeps every resume call on the
//     hot path defer-free. PR 7 trimmed the remaining copies: delivery to
//     a host-parked process writes the wake value in place before the
//     switch (no 48-byte handoff round trip), the heap pop returns its
//     fields in registers, scheduling into the future appends without a
//     sift, and kernels running the default no-op timing model skip the
//     hooks interface calls entirely.
//   - Sweep trials run in batched sessions (core.Session, PR 5): a
//     session pins one simulated machine, link, kernel-object pair and
//     rendezvous for a sweep cell's lifetime, and consecutive trials only
//     reset and reseed it. Kernel objects, i-nodes, open-file entries and
//     isolation domains are retired to typed free pools on reset and
//     reinitialized in place by the next trial's creates; handle and fd
//     tables are dense slices with cached boundary-crossing bits; the
//     symbol sequence, latency scratch, decoder and result storage are
//     all session-owned and grow-once. A steady-state session trial
//     performs zero heap allocations. Session is the only trial engine:
//     core.Run is one trial on a session borrowed from a pool, and
//     performs five allocations — copying the Result out to caller-owned
//     storage (budgeted at ≤6 by the perf smoke). The experiments
//     layer gives every sweep worker its own
//     session per channel substrate (core.SessionCache via
//     runner.MapWith) and memoizes completed trials across sweeps by full
//     effective config, so registry entries that measure the same cell
//     (crossmech's paper rows are Table IV/V's) compute it once.
//   - Gaussian noise draws are ziggurat, not Box–Muller (PR 7): a
//     128-layer Marsaglia–Tsang table turns ~98.9% of sim.RNG.NormFloat64
//     calls into one splitmix64 word, one table compare and one multiply
//     — no Log/Sqrt/Sincos. Transcendentals survive only in the wedge and
//     tail fallbacks (~1% of draws) and in the lognormal hazards.
//   - Per-op jitter (timing.Profile.Cost/SleepExtra/Cross, the call under
//     every simulated syscall) is a quantized lookup: calibration
//     precomputes sigma × deviate into per-op tables over a 256-level
//     inverse-CDF quantization of the normal (rescaled to exactly unit
//     variance), so the hot call is one jitter byte and one table index —
//     no float pipeline at all. The jitter bytes come from a dedicated
//     splitmix64 substream with its own gamma, drawn through a pre-filled
//     512-byte deviate plane embedded in the RNG (refilled in bulk,
//     Reseed-cleared, zero allocations), and the main value stream
//     never moves when timing code adds or removes jitter draws.
//   - The event core is a single value-typed 4-ary heap: every dispatch
//     and wake, the rendezvous wake behind each protocol symbol included,
//     is pushed and popped through it.
//   - Traced runs record typed, flat entries. A sim.Entry is a 48-byte
//     value: the time, Object (the resource the call touched — object
//     name, file path or signal target), two int64 argument slots and a
//     pointer to its origin, which the Trace shares among every entry one
//     process records at one sim.Site. Kernel.Record stores those values
//     and nothing else; Detail and String render lazily from the site's
//     format, byte-identical to the eager format strings they replace
//     (pinned by core's trace-hash golden table). internal/detect groups
//     by (event, Object) read straight off each entry — no string
//     parsing, so two resources whose names share a final word stay two
//     — and skips object-less entries before any map lookup. A traced
//     1000-bit transmission allocates 18 times more than an untraced one
//     (the trace, its entry slice's doublings, one origin row per
//     process), where boxing every entry's arguments cost ~5000.
//
// Outputs stay deterministic through all of this because ordering is a
// total order on (time, sequence): the hand-rolled heap pops the same
// sequence as the reference heap, the inline fast path and the migrating
// host loop only ever run the event the queue would have popped next
// (ties always go through the queue, preserving FIFO), and a reset
// machine — sessions included — is indistinguishable from a fresh one.
// The registry tests assert byte-identical output across worker counts
// 1 and 8, each on a first pass and on a second pass over recycled
// sessions and machines; core's conformance test adds fresh machines,
// and core.Session-level tests pin per-trial equality with Run,
// including across mid-session deadlocks.
//
// PR 7 before → after on the 1-core reference container (BENCH_PR7.json):
//
//	kernel events/s            7.18M → 8.19M   (1.14×, 9.1M on quiet runs)
//	context switch round trip  137ns → 126ns
//	one Event transmission     698µs/5 allocs → 477µs/5 allocs (one-shot)
//	one steady-state trial     715µs/0 allocs → 419µs/0 allocs (1.71×)
//	Fig. 9 sweep (workers=1)   28.4ms → 17.5ms (1.62×)
//	full `-all -quick` registry ~135ms → ~108ms (1.25×)
//
// The libm floor PR 5 identified (~30% of registry wall time) is gone;
// what remains is the event core itself — Sleep/schedule/pop and one
// coroutine switch per protocol handoff, the architectural floor at
// ~100–130ns per event on this box. That floor is why the PR 7 stretch
// targets (10M events/s, 70ms registry) landed short: reaching them needs
// the next event-core generation, not more noise-model work.
//
// PR 8 before → after on the 1-core reference container (BENCH_PR8.json):
//
//	kernel events/s            8.19M → 8.82M
//	context switch round trip  126ns → 110ns
//	one Event transmission     477µs/5 allocs → 401µs/5 allocs (one-shot)
//	detector trace scan        5.86M → 8.54M entries/s, 201 → 0 allocs/scan
//	switches per symbol        (new row) 1.00 on the benchmark channel
//	replay skeleton hit rate   (new row) 0.99
//	full `-all -quick` registry ~108ms → ~102ms
//
// PR 8 tested that diagnosis by building the next queue generation —
// fused wakes and per-bit replay remove the heap from the steady-state
// symbol path outright — and the wall-clock barely moved (BENCH_PR8.json:
// 8.8M events/s, 102ms registry on quiet runs), which confirms it:
// profiles of a steady-state session show the heap absent from the top
// 25 rows even with replay off; the time is runtime.coroswitch plus the
// iter.Pull resume CAS (~25%) and the timing-model draws. What the
// engine does buy is structural: switches-per-bit and the replay hit
// rate are now first-class trajectory rows (schema v4), the cooperation
// channels run at their 1.00-switch-per-bit alternation lower bound
// (contention channels pay up to ~1.9 for the barrier round), and the
// next generation has a measured target — the switch itself, not the
// queue. The 10M/70ms stretch targets remain open.
//
// PR 9 measurements on the same container (BENCH_PR9.json; the box was
// noisier than during PR 8 — nine runs spread 6.9–8.3M events/s and
// 117–133ns/switch, so the checked-in file is the quietest run and the
// before → after deltas are mostly box noise):
//
//	kernel events/s            8.82M → 7.51M  (8.25M best run)
//	context switch round trip  110ns → 120ns
//	resume round trip          (new row) 109ns (BenchmarkResumeRoundTrip)
//	one steady-state trial     440µs/0 allocs → 480µs/0 allocs
//	switches per symbol        1.00 → 1.00 (already the alternation bound)
//	full `-all -quick` registry ~102ms → ~108ms
//
// PR 9 went at the switch itself and came back with a negative result
// worth recording: the resume_ns row is the measurement. A bare resume
// round trip with no kernel, queue or timing model around it costs
// ~109ns against the full context switch's ~120ns — the scheduler's own
// protocol (host migration, wake delivery, idle parking) adds only
// ~10ns per switch, so everything else is the runtime's coroutine
// transfer plus iter.Pull's CAS state machine. A fully raw
// runtime.coroswitch backend cannot remove that: the Go linker's
// blockedLinknames list restricts the newcoro/coroswitch linknames to
// package iter, so the hand-rolled layer (sim's coroHandle) owns the
// protocol — resume loop, idle park, cancellation unwind — and keeps the
// transfer as its one irreducible primitive. Batching (prevalidated
// windows verified by op count alone) removes the per-op shape compares
// but cannot remove switches: every MES symbol is a Trojan↔Spy
// alternation, and switches-per-bit already sits at that 1.00 lower
// bound. CPU profiles of a steady-state trial accordingly still put the
// transfer machinery at ~26% (coroswitch+mcall ~13%, the iter.Pull CAS
// ~6%, the pull closures ~7%) — not below the 10% ISSUE 9 hoped for,
// because the remaining cost is the runtime primitive, not our protocol
// around it. Crossing 10M events/s from here means fewer transfers
// (multi-symbol bodies that batch protocol work between yields), not a
// cheaper transfer.
//
// The fused-wake, per-bit replay and symbol-batching engine described
// above was later deleted: measured end to end by bench/, the plain heap
// path was at least as fast on every workload (faster on the two session
// workloads) with identical switch and symbol-window counts.
//
// Typed trace records, before → after on the 2-vCPU benchmark VM
// (`sh bench/run.sh --workload traced-detect --seed 1 --seconds 25
// --trace 0`: one op is a traced one-shot 1000-bit transmission over
// each of the nine mechanisms, each trace scanned by detect.Analyzer;
// medians of 10 alternating runs per side):
//
//	traced sweeps/s            99.7 → 130.8   (won 10 of 10 pairs)
//	sweep p50 / p99            9.94 → 7.51ms / 15.5 → 11.1ms
//	peak RSS                   14.9 → 9.6MB
//	allocations per sweep      47.8k/10.9MB → 2.8k/5.3MB (untraced: 2.6k)
//	detector scan of a sweep   676 → 241µs     (29788 entries, unchanged)
//
// PR 7 is also the project's second deliberate RNG stream change (the
// first, PR 3, banked the Box–Muller pair). Ziggurat consumes one uint64
// per common-case draw where Box–Muller consumed two floats per pair, and
// Intn now uses Lemire multiply-shift reduction instead of the biased
// `% n`, so every noisy fixed-seed expectation was re-validated once:
// goldens regenerated, and the three marginal fixed-seed thresholds
// re-picked by scanning seeds on the new stream exactly as PR 3 did
// (core calibration seed 5 → 9, widest worst-cell BER margin over seeds
// 1–12; experiments quick seed 6 → 8; facade seed 2 → 3 — the scan
// evidence lives as comments at each seed). Statistical correctness is
// pinned by moment, chi-square-vs-erf and tail-mass tests at fixed seeds
// (internal/sim/rng_test.go), and byte-identity is re-proven across the
// session × pooling × workers cube.
//
// Use core.Session / RunTrials (facade: NewSession, SendTrials) when
// replaying one mechanism+scenario substrate many times — Monte-Carlo
// cells, parameter grids, throughput services; its Results borrow session
// buffers and are valid until the next trial. Use Run/Send for
// isolated transmissions or whenever the caller must keep the full Result
// (its slices are caller-owned), e.g. traced detector runs.
//
// To profile, run the experiment driver with the pprof flags:
//
//	go run ./cmd/mesbench -exp fig9a -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
//
// and track the trajectory numbers with `make bench-json` (see the
// BENCH_PR<n>.json series): raw kernel events/sec, the context-switch
// round trip, per-transmission and per-session-trial ns and allocs, the
// detector's trace-scan rate, the Fig. 9 sweep wall-clock, (since
// schema v3) the full quick registry's wall-clock with cold caches plus
// the steady-state trial allocation count, both gated by `make
// perf-smoke`, which since PR 7 also enforces absolute machine-normalized
// floors (raised by PR 8 to 7.5M events/s and a 125ms quick registry;
// held there by PR 9, whose noisier container cleared nothing higher)
// plus (since schema v4) the coroutine switches per transmitted symbol
// and (since schema v5) the bare
// resume round trip, resume_ns — its delta against the context-switch
// row is the scheduler's own per-switch overhead. Trajectory so far on
// this container: kernel 0.89M → 2.17M (PR 2) → 5.65M (PR 3) → 7.18M
// (PR 5) → 8.19M (PR 7) → 8.82M events/s (PR 8) → 7.5–8.3M under PR 9's
// box noise; one transmission 9.12ms/18166 allocs → 1.67ms/49 →
// 0.83ms/10 → 0.70ms/5 → 0.48ms/5 → 0.40ms/5 one-shot and 0 allocs in a
// session.
//
// # Robustness
//
// PR 10 adds a deterministic fault-injection plane to the kernel and a
// self-healing protocol layer above it, so the channels' behavior under
// scheduler misbehavior — the noise source the paper's §V robustness
// discussion worries about — is measurable rather than anecdotal.
//
// The fault plane (internal/sim/fault.go) is a third splitmix64
// substream alongside the value and jitter streams, seeded from
// (Config.FaultSeed, run seed) alone and consulted at the two
// scheduling choke points every protocol interaction passes through:
// Proc.Sleep and the wake paths. Each consult draws one word against a
// fixed threshold (probability Config.FaultRate); a hit draws a second
// word to pick the class — for a sleep, crash the sleeper, spurious
// early wakeup, or a preemption burst of 1–8 scheduler quanta; for a
// wake, crash the parked wakee, lose the wake, or delay it 1–8 quanta.
// The substream is drawn at call time, so the injected fault schedule
// is a pure function of (config, seed, faultSeed) — byte-identical
// across worker counts, pooling and sessions — and faultrate=0 never
// draws a word at all (byte-identical to a kernel without the plane). Crashed processes
// unwind through their deferred functions, which carry the OS model's
// wait-queue hooks: a corpse is dequeued from whatever kobj/vfs wait
// queue it blocked in, so a later grant (a signal, an unlock handoff, a
// lock release) reaches the next live waiter instead of vanishing.
//
// The self-healing layer (core.Config.Recover) answers faults at
// protocol level: a trial watchdog force-wakes waits blocked past an
// adaptive patience (checking Kernel.PendingWakeFor first, so an
// in-flight delayed wake is never double-delivered), rescued waits fill
// their symbol slot with an erasure instead of shearing the stream, and
// the sender interleaves a fresh resync preamble every 32 payload
// symbols so the decoder can re-lock after a desync (Result.Resyncs
// counts the re-locks). Failures carry a typed taxonomy, errors.Is-able
// end to end through the facade and cmd/mesbench: ErrDeadlock (the run
// stalled), ErrCrashed (a process died mid-trial — recovery cannot
// resurrect it), ErrSyncLoss (Recover-mode decoder never achieved
// symbol lock) and ErrCalibration. Either way the trial releases its
// machine: crashed and deadlocked session trials leave no goroutines
// behind and the next trial on the session replays byte-identical to a
// fresh Run.
//
// The faultsweep registry experiment sweeps fault rate × mechanism ×
// recovery mode and renders the BER/throughput degradation matrix; its
// conformance test pins the headline result — BER degrades monotonically
// with fault rate for every mechanism, and recovery-on strictly
// dominates recovery-off at nonzero rates — and the engine-cube test
// pins the fault matrix byte-identical across worker counts and across
// first and recycled passes.
// cmd/mesbench exposes the axis as -faultrate/-faultseed.
//
// # Invariants
//
// Three contracts hold everything above together, and all three are
// enforced statically by the meslint analyzer suite
// (internal/analysis, built as a `go vet` tool by cmd/meslint) on top
// of the runtime tests that pin them:
//
//   - Determinism: simulation output is a pure function of the config
//     and seed — byte-identical across worker counts, fresh or recycled
//     machines and sessions, and whatever ran before on them — including
//     the fault axis: the fault
//     substream is drawn at call time. The detnondet analyzer forbids
//     wall-clock
//     reads (time.Now/Since/Until), math/rand and map-order-dependent
//     ranges in every package that feeds simulation output. Tracing
//     cannot perturb untraced runs by construction: Kernel.Record takes
//     plain values (a site id, the resource string, two int64 slots), so
//     an untraced call costs one inlined nil check and boxes nothing.
//   - Allocation budgets: the event core runs at 0 allocs/event, a
//     steady-state session trial at 0 allocs, a core.Run within its
//     6-alloc budget. Functions on these paths are annotated
//     //mes:allocfree, and the allocfree analyzer rejects closures, fmt
//     calls and implicit interface boxing inside them;
//     the poolhygiene analyzer checks that every pooled acquire
//     (runner.Pool.Get, osmodel.NewSystem, core.NewSession, the
//     retire-list TakeRetired) is released on every control-flow path,
//     because a leaked machine pins its kernel's coroutines and arena.
//   - Mechanism-table completeness: the channel family is table-driven
//     over Mechanisms(), and every table — the timing op-cost arrays,
//     the per-scenario Timesets, the detector's channelEvents — must
//     cover every member. Tables carry //mes:mechtable <Type>
//     (enum-exhaustiveness, checked per construct); the mechanisms'
//     traced event names (//mes:mechevents on core.Mechanism.TraceEvents)
//     and the detector's watch set (//mes:mechevents-keys on
//     detect.channelEvents) are exported as package facts and joined at
//     any package importing both, so a mechanism whose events the
//     detector does not watch — the blind spot the PR 4 conformance
//     audit caught at test time — fails `go vet`.
//
// Intentional exceptions carry //lint:allow <analyzer> <reason> on or
// directly above the flagged line; the reason is mandatory, and a
// reasonless allow is itself a lint error. Run the suite locally with
//
//	make lint
//
// which builds bin/meslint and runs `go vet -vettool` over the module
// (plus staticcheck when the pinned version is installed); `make ci`
// includes it.
//
// Quick start:
//
//	res, err := mes.Send(mes.Config{
//		Mechanism: mes.Event,
//		Scenario:  mes.Local(),
//		Payload:   mes.TextBits("secret"),
//		Seed:      1,
//	})
//	// res.ReceivedBits.Text() == "secret", res.TRKbps ≈ 13.1, res.BER < 1%
//
// This is a research artifact for studying and defending against
// software-controlled covert channels; the simulated substrate makes every
// run reproducible from a seed.
package mes

import (
	"mes/internal/codec"
	"mes/internal/core"
)

// Mechanism selects a channel mechanism: one of the paper's six MESMs or
// an extension mechanism.
type Mechanism = core.Mechanism

// The paper's six mechanisms (§IV.G) followed by the extension family.
const (
	Flock      = core.Flock
	FileLockEX = core.FileLockEX
	Mutex      = core.Mutex
	Semaphore  = core.Semaphore
	Event      = core.Event
	Timer      = core.Timer
	Futex      = core.Futex
	CondVar    = core.CondVar
	WriteSync  = core.WriteSync
)

// Scenario is a deployment scenario from the paper's threat model (§III).
type Scenario = core.Scenario

// Local places Trojan and Spy on the same host.
func Local() Scenario { return core.Local() }

// CrossSandbox places the Trojan inside a sandbox.
func CrossSandbox() Scenario { return core.CrossSandbox() }

// CrossVM places Trojan and Spy in different virtual machines.
func CrossVM() Scenario { return core.CrossVM() }

// Config describes a transmission; see core.Config for all knobs.
type Config = core.Config

// Params are channel time parameters (paper §V.C).
type Params = core.Params

// Result reports a completed transmission.
type Result = core.Result

// Bits is a bit sequence.
type Bits = codec.Bits

// Send runs one covert transmission and decodes the Spy's observations.
func Send(cfg Config) (*Result, error) { return core.Run(cfg) }

// Session pins one simulated machine and channel substrate across many
// trials; see core.Session for the batching and Result-ownership
// contract.
type Session = core.Session

// NewSession opens a trial session for cfg's mechanism and scenario.
func NewSession(cfg Config) (*Session, error) { return core.NewSession(cfg) }

// SendTrials replays cfg under one pinned session, once per seed; visit
// receives each trial's borrowed Result (valid only during the call).
func SendTrials(cfg Config, seeds []uint64, visit func(trial int, res *Result) error) error {
	return core.RunTrials(cfg, seeds, visit)
}

// TextBits encodes UTF-8 text for transmission.
func TextBits(s string) Bits { return codec.FromString(s) }

// ParseBits parses a "1010…" string.
func ParseBits(s string) (Bits, error) { return codec.ParseBits(s) }

// Mechanisms lists the full channel family: the paper's six in the
// paper's order, then the extension mechanisms.
func Mechanisms() []Mechanism { return core.Mechanisms() }

// PaperMechanisms lists only the six mechanisms the paper evaluates.
func PaperMechanisms() []Mechanism { return core.PaperMechanisms() }

// Feasible reports whether a mechanism can form a channel in a scenario
// (Table VI: identity-only kernel objects do not cross VM boundaries).
func Feasible(m Mechanism, s Scenario) error { return core.Feasible(m, s) }
