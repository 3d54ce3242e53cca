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
// so its per-event and per-switch costs bound the registry's wall clock.
//
//   - One event queue: a value-typed 4-ary min-heap ordered by (time,
//     sequence). Events are tagged, not closures: dispatches and wake-ups
//     — the traffic behind Sleep, Exec, Yield and Wake — are encoded as
//     (kind, proc, value), so pushing one is a slice append that
//     allocates nothing. Only the rare Kernel.At callers carry a closure.
//   - The kernel↔process handoff is a coroutine transfer through sim's
//     coroHandle, a small resume protocol (loop, idle park, cancellation
//     unwind) over iter.Pull. It stays on iter.Pull because the Go
//     linker's blockedLinknames list restricts runtime.newcoro and
//     runtime.coroswitch to package iter, so a raw backend would need
//     -ldflags=-checklinkname=0 on every build. While Kernel.Run drives
//     the simulation, a blocking process runs the scheduler loop itself
//     and switches straight to the next runnable process, and a process
//     that would be popped next anyway just advances the clock, so a
//     cooperation channel pays about one switch per bit.
//   - Trials run on sessions (core.Session): a session pins one simulated
//     machine, link and kernel-object pair, and consecutive trials only
//     reset and reseed it. Kernel objects, i-nodes and file entries are
//     retired to typed free pools and reinitialized in place, and the
//     symbol, latency, decoder and result buffers are session-owned and
//     grow once. A steady-state trial therefore allocates nothing, so no
//     sweep cell pays the GC for its trials. core.Run is one trial on a
//     pooled session plus a copy of its Result (at most 6 allocations).
//   - Noise is cheap: Gaussians are a ziggurat, and per-op jitter is one
//     byte from a dedicated substream indexing a quantized table.
//   - Setup pays only for what a run touches: each timing profile's tables
//     are built on first use, not at package init. A trace's storage grows
//     by doubling and never past a bounded trace's capacity; its entries
//     are flat 48-byte sim.Entry values, rendered only when read.
//
// Output stays deterministic because ordering is a total order on (time,
// sequence): the inline fast path and the migrating host loop only ever
// run the event the heap would have popped next (ties go through the
// heap, preserving FIFO), and a reset machine — sessions included — is
// indistinguishable from a fresh one. The registry tests assert
// byte-identical output across worker counts 1 and 8, on first and on
// recycled passes.
//
// `make perf-smoke` gates the allocation budgets and exact work counts:
// per mechanism the switches, symbol windows, events pushed and trace
// entries of a fixed trial batch. Wall clock, with its spread, end to end
// and per layer, is measured by the bench/ module (see bench/README.md);
// CHANGES.md holds the history of each optimisation and its numbers.
//
// Use core.Session / RunTrials (facade: NewSession, SendTrials) when
// replaying one substrate many times; its Results borrow session buffers
// and are valid until the next trial. Use Run/Send when the caller must
// keep the Result (its slices are caller-owned), e.g. traced detector runs.
//
// To profile, run the experiment driver with the pprof flags:
//
//	go run ./cmd/mesbench -exp fig9a -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
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
