package sim

import (
	"errors"
	"fmt"
	"sort"
)

// eventKind tags what an event does when it fires. The dominant scheduler
// traffic — process dispatches and wake-ups — is encoded structurally
// (kind + proc + value) so the hot paths schedule without allocating a
// closure; evGeneric with a fn remains for the rare direct At/After users.
type eventKind uint8

const (
	evGeneric  eventKind = iota // run fn
	evDispatch                  // hand the execution token to proc
	evWake                      // deliver value to proc's Park, then dispatch
)

// event is a scheduled action on the virtual timeline. Ties on time are
// broken by sequence number, so scheduling order is total and deterministic.
// Events are stored by value in the kernel's queue: pushing one is a slice
// append, never a heap allocation.
type event struct {
	at    Time
	seq   uint64
	kind  eventKind
	value int
	proc  *Proc
	fn    func()
}

// before reports whether e fires ahead of o: earlier time, or FIFO by
// sequence number on ties.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// DeadlockError reports that the simulation can make no further progress
// while processes are still blocked. Procs lists their names.
type DeadlockError struct {
	At    Time
	Procs []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v, blocked: %v", e.At, e.Procs)
}

// ErrStopped is returned by Run when Stop was called.
var ErrStopped = errors.New("sim: stopped")

// Kernel is the discrete-event simulator. Create one with NewKernel, spawn
// processes, then call Run. Kernel is not safe for concurrent use; all
// interaction happens either before Run or from within process bodies.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event // value-typed 4-ary min-heap ordered by (at, seq)
	rng     *RNG
	hooks   Hooks
	nop     bool // hooks is NopHooks: Sleep/Exec skip the interface calls
	trace   *Trace
	procs   []*Proc
	free    []*Proc // finished procs available for reuse after Reset
	spawned int
	live    int // procs not yet finished
	running *Proc
	stopped bool
	horizon Time // 0 = unlimited
	// recycle marks a kernel whose procs are reused across runs (set by the
	// first Reset/ResetTo — the pooled-machine pattern). Only then do
	// finished bodies keep their coroutine parked for the next spawn; on
	// one-shot kernels coroutines exit with their body so a dropped kernel
	// leaves no goroutines behind. Release clears it.
	recycle bool

	// Direct-handoff state (see Proc.host). hosting marks a Run-driven
	// kernel: blocked processes then run the scheduler loop on their own
	// goroutine and switch straight to the next process, instead of
	// round-tripping through the kernel goroutine (Step-driven kernels
	// keep the classic one-event-per-call handoff). handoff parks a
	// popped-but-undelivered dispatch/wake on its way to its target, and
	// pendingPanic transports a body panic captured by an innocent host
	// back to Run, which re-panics with the original value.
	hosting      bool
	handoff      event
	hasHandoff   bool
	pendingPanic any
	panicPending bool

	// Fault-injection plane (see fault.go): fthresh is the per-consult
	// hit threshold (0 = disarmed — the compiled-in hooks reduce to one
	// false compare), fstate the dedicated splitmix64 substream, fstats
	// the per-run injection counters. Cleared by resetState; ArmFaults
	// re-arms after a Reset/ResetTo.
	fthresh uint64
	fstate  uint64
	fstats  FaultStats

	// Perf counters, cumulative across Reset (cleared by Release): the
	// bench harness reads deltas across pooled trials. windows counts
	// symbol windows (MarkWindow), the denominator of switches per bit.
	switches uint64
	windows  uint64
}

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the root RNG seed (default 1).
func WithSeed(seed uint64) Option {
	return func(k *Kernel) { k.rng.Reseed(seed) }
}

// WithHooks installs a timing/noise model. The default is NopHooks.
func WithHooks(h Hooks) Option {
	return func(k *Kernel) { k.hooks = h }
}

// WithTrace attaches an event trace recorder.
func WithTrace(t *Trace) Option {
	return func(k *Kernel) { k.trace = t }
}

// WithHorizon stops the simulation when the clock would pass t.
func WithHorizon(t Time) Option {
	return func(k *Kernel) { k.horizon = t }
}

// NewKernel builds an empty simulator.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{
		rng:   NewRNG(1),
		hooks: NopHooks{},
	}
	for _, o := range opts {
		o(k)
	}
	k.refreshHooks()
	k.prefillDraws()
	return k
}

// prefillDraws vectorizes the run's quantized timing draws up front:
// modeled kernels fill the root RNG's jitter deviate plane at reset so
// the trial's table-served draws (timing.Profile's quantized tables) pay
// no lazy-refill stall mid-window. Raw kernels (NopHooks — the event-core
// benchmarks and protocol unit tests) never draw jitter and skip it.
// Buffering only; the served sequence, and with it every golden, is
// unchanged.
func (k *Kernel) prefillDraws() {
	if !k.nop {
		k.rng.PrefillJitter()
	}
}

// refreshHooks recomputes the NopHooks fast-path flag after k.hooks
// changes. The default timing model is a no-op; caching the type check
// lets Sleep and Exec skip two dynamic dispatches per call on raw
// kernels (the event-core benchmark and protocol unit tests).
func (k *Kernel) refreshHooks() {
	_, k.nop = k.hooks.(NopHooks)
}

// Reset returns the kernel to its post-NewKernel state (with the given
// options applied) while keeping allocated capacity: the event queue's
// backing array and the process structures themselves are reused by
// subsequent Spawns. Reset must not be called while Run is executing.
// Processes still blocked mid-wait (a deadlocked or stopped run) are
// unwound first: cancelling their coroutine makes the in-flight yield
// return false, the body panics with the procAbort sentinel (running its
// deferred functions), and the structure becomes recyclable like any
// finished process.
func (k *Kernel) Reset(opts ...Option) {
	k.resetState() // detaches the trace
	k.recycle = true
	k.hooks = NopHooks{}
	k.rng.Reseed(1)
	for _, o := range opts {
		o(k)
	}
	k.refreshHooks()
	k.prefillDraws()
}

// ResetTo is the allocation-free equivalent of
// Reset(WithSeed(seed), WithHooks(h), WithTrace(tr), WithHorizon(horizon))
// for pooled machines: no option slice, no option closures. A nil trace
// detaches tracing and horizon 0 means unlimited, exactly like a fresh
// kernel.
func (k *Kernel) ResetTo(seed uint64, h Hooks, tr *Trace, horizon Time) {
	k.resetState()
	k.recycle = true
	if h == nil {
		h = NopHooks{}
	}
	k.hooks = h
	k.refreshHooks()
	k.trace = tr
	k.horizon = horizon
	k.rng.Reseed(seed)
	k.prefillDraws()
}

// Release tears the kernel down: every coroutine — blocked mid-wait or
// parked idle awaiting recycling — is unwound and its goroutine exits, so
// nothing pins the machine in memory. A released kernel is equivalent to a
// fresh NewKernel() (it may be reused), but the free list is emptied and
// subsequent spawns allocate anew. Pooled machines evicted from their pool
// must be released; see runner.NewPoolDrop.
func (k *Kernel) Release() {
	k.resetState()
	for i, p := range k.free {
		if p.co.active() {
			p.co.cancel()
			p.detach()
		}
		k.free[i] = nil
	}
	k.free = k.free[:0]
	k.recycle = false
	k.hooks = NopHooks{}
	k.nop = true
	k.rng.Reseed(1)
	k.switches, k.windows = 0, 0
}

// resetState clears the simulation state shared by Reset and ResetTo,
// keeping allocated capacity.
func (k *Kernel) resetState() {
	// Detach the previous run's trace before unwinding: an abandoned
	// body's deferred functions may call Record on the way down, and those
	// entries must not leak into a trace the caller already collected.
	k.trace = nil
	// Unwind abandoned bodies before touching any other state: events
	// their deferred functions schedule on the way down are discarded
	// below.
	for _, p := range k.procs {
		if p.state != ProcDone && p.co.active() {
			p.co.cancel()
			p.detach()
		}
	}
	for i := range k.events {
		k.events[i] = event{} // release fn/proc references
	}
	k.events = k.events[:0]
	for i, p := range k.procs {
		k.free = append(k.free, p)
		k.procs[i] = nil
	}
	k.procs = k.procs[:0]
	k.now, k.seq = 0, 0
	k.spawned, k.live = 0, 0
	k.running = nil
	k.stopped = false
	k.horizon = 0
	k.hosting = false
	k.handoff = event{}
	k.hasHandoff = false
	k.pendingPanic, k.panicPending = nil, false
	k.fthresh, k.fstate = 0, 0
	k.fstats = FaultStats{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's root RNG. Subsystems should usually Split it.
func (k *Kernel) Rand() *RNG { return k.rng }

// Hooks returns the installed timing model.
func (k *Kernel) Hooks() Hooks { return k.hooks }

// Trace returns the attached trace recorder, or nil.
func (k *Kernel) Trace() *Trace { return k.trace }

// DetachTrace drops the trace reference without resetting anything else:
// a machine parked in a reuse pool must not keep the previous caller's
// trace alive until its next Reset.
func (k *Kernel) DetachTrace() { k.trace = nil }

// schedule inserts an event at absolute time t (clamped to now). The heap
// is 4-ary: shallower than a binary heap for the same size, so the sift-up
// here and the sift-down in pop touch fewer cache lines per operation.
//
//mes:allocfree
func (k *Kernel) schedule(t Time, kind eventKind, p *Proc, value int, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	h := append(k.events, event{at: t, seq: k.seq, kind: kind, value: value, proc: p, fn: fn})
	// Sift up only when the new event beats its parent; scheduling into
	// the future (the dominant pattern — sleeps and wakes) appends in
	// place with a single store. The parent wins ties automatically:
	// existing events always carry smaller sequence numbers than the one
	// being inserted.
	if i := len(h) - 1; i > 0 && h[(i-1)>>2].at > t {
		ev := h[i]
		for i > 0 {
			parent := (i - 1) >> 2
			if h[parent].at <= t {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = ev
	}
	k.events = h
}

// popTop removes the earliest event, returning its fields as scalars —
// they travel back in registers, where returning the 48-byte event
// struct would bounce it through the stack twice on the hottest loop in
// the simulator.
//
//mes:allocfree
func (k *Kernel) popTop() (at Time, kind eventKind, value int, q *Proc, fn func()) {
	h := k.events
	at, kind, value, q, fn = h[0].at, h[0].kind, h[0].value, h[0].proc, h[0].fn
	n := len(h) - 1
	last := h[n]
	h[n].proc, h[n].fn = nil, nil // release the vacated slot's references
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			min := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[min]) {
					min = j
				}
			}
			if !h[min].before(&last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	k.events = h
	return
}

// At schedules fn to run at absolute time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t, evGeneric, nil, 0, fn)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now.Add(d), fn)
}

// Stop aborts the run after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Spawn creates a process named name running fn and schedules it to start
// now. The process body runs on its own goroutine but only while the kernel
// has handed it the (single) execution token.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at absolute time t. After a Reset,
// finished process structures — including their live coroutines, parked in
// loop's idle yield — are recycled, so respawning allocates nothing.
func (k *Kernel) SpawnAt(t Time, name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(k.free); n > 0 {
		p = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		p.id = len(k.procs) + 1
		p.name = name
		p.body = fn
		p.state = ProcCreated
		p.wakeValue = 0
		p.handed = false
		p.crashed = false
	} else {
		p = &Proc{
			k:     k,
			id:    len(k.procs) + 1,
			name:  name,
			body:  fn,
			state: ProcCreated,
		}
	}
	k.procs = append(k.procs, p)
	k.spawned++
	k.live++
	k.schedule(t, evDispatch, p, 0, nil)
	return p
}

// resume transfers control into q's coroutine, creating it on first use.
// The transfer is a coroutine switch (iter.Pull's runtime.coroswitch on
// every build; see coro.go): a direct goroutine-to-goroutine transfer
// with no scheduler park/unpark, so the Go runtime never arbitrates the
// simulation's single-threaded control flow.
//
//mes:allocfree
func (k *Kernel) resume(q *Proc) {
	if !q.co.active() {
		q.co.start(q.loop) // cold: once per process lifetime, recycled procs skip it
	}
	k.switches++
	q.co.transferIn()
}

// checkWake panics on a wake of a non-parked process: lost wakeups would
// silently corrupt channel timing measurements. The panic itself lives
// in badWake so this guard inlines into the dispatch loops. A wake whose
// target crashed after it was scheduled is the one legitimate straggler:
// deliver/dispatch drop it on the ProcDone check.
func (k *Kernel) checkWake(kind eventKind, q *Proc) {
	if kind == evWake && q.state != ProcParked && !q.crashed {
		badWake(q)
	}
}

func badWake(q *Proc) {
	panic(fmt.Sprintf("sim: Wake of non-parked process %q (state %v)", q.name, q.state))
}

// deliver routes a popped dispatch/wake to its target. A target with a
// host frame (its body is blocked inside Proc.host) gets the event
// delivered in place (handed — wakeValue pre-set, no handoff copy);
// fresh bodies and idle recycled coroutines start clean — for them the
// resume itself is the delivery. Used by the kernel-driven paths (Run's
// top level and Step); hosts route their own copy in Proc.host, which
// additionally unwinds to in-chain targets.
//
//mes:allocfree
func (k *Kernel) deliver(kind eventKind, value int, q *Proc) {
	if q.state == ProcDone {
		return
	}
	if q.hostParked {
		if kind == evWake {
			q.wakeValue = value
		}
		q.handed = true
	}
	q.state = ProcRunning
	k.running = q
	k.resume(q)
	k.running = nil
}

// execute fires one popped event (the Step path and Run's top level).
//
//mes:allocfree
func (k *Kernel) execute(kind eventKind, value int, q *Proc, fn func()) {
	switch kind {
	case evDispatch, evWake:
		k.checkWake(kind, q)
		k.deliver(kind, value, q)
	default:
		fn()
	}
}

// Run processes events until none remain, all processes have finished, the
// horizon is reached, or Stop is called. It returns a *DeadlockError if the
// queue drains while processes are still blocked.
//
// While Run drives the kernel, dispatching is cooperative: a process that
// blocks keeps the scheduler loop running on its own goroutine and
// switches directly to the next runnable process (Proc.host), so the
// common block→wake ping-pong costs one coroutine switch instead of two.
// Control only returns here when a host chain cannot make progress —
// queue drained, Stop, horizon, all processes finished — or to re-raise a
// captured body panic with its original value.
func (k *Kernel) Run() error {
	k.hosting = true
	defer func() { k.hosting = false }()
	for len(k.events) > 0 {
		if k.panicPending {
			r := k.pendingPanic
			k.pendingPanic, k.panicPending = nil, false
			panic(r)
		}
		if k.stopped {
			return ErrStopped
		}
		if k.spawned > 0 && k.live == 0 {
			// All processes finished; only detached events (e.g. dangling
			// timers) remain. Process-less simulations drain the queue.
			return nil
		}
		if k.horizon > 0 && k.events[0].at > k.horizon {
			k.now = k.horizon
			return nil
		}
		at, kind, value, q, fn := k.popTop()
		if at > k.now {
			k.now = at
		}
		k.execute(kind, value, q, fn)
	}
	if k.panicPending {
		r := k.pendingPanic
		k.pendingPanic, k.panicPending = nil, false
		panic(r)
	}
	if k.live > 0 {
		var blocked []string
		for _, p := range k.procs {
			if p.state == ProcParked || p.state == ProcSleeping {
				blocked = append(blocked, p.name)
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{At: k.now, Procs: blocked}
	}
	return nil
}

// runnable reports whether a host may execute the next queued event right
// now; when false the host parks and lets control unwind to Run, which
// owns the corresponding terminal decision.
func (k *Kernel) runnable() bool {
	if k.stopped || len(k.events) == 0 {
		return false
	}
	if k.spawned > 0 && k.live == 0 {
		return false
	}
	if k.horizon > 0 && k.events[0].at > k.horizon {
		return false
	}
	return true
}

// Step runs a single event. It reports whether an event was processed;
// events beyond the horizon are not executed (the clock clamps to the
// horizon instead, matching Run).
func (k *Kernel) Step() bool {
	if len(k.events) == 0 || k.stopped {
		return false
	}
	if k.horizon > 0 && k.events[0].at > k.horizon {
		k.now = k.horizon
		return false
	}
	at, kind, value, q, fn := k.popTop()
	if at > k.now {
		k.now = at
	}
	k.execute(kind, value, q, fn)
	return true
}

// Live reports the number of processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// MarkWindow counts the start of one transmitted symbol's window. The
// protocol layer calls it once per symbol from the sender's loop; the
// count is the denominator of the bench trajectory's switches per bit.
//
//mes:allocfree
func (k *Kernel) MarkWindow() { k.windows++ }

// Switches reports the cumulative number of coroutine transfers into
// process bodies since the kernel was created. The counter survives
// Reset — the bench harness reads deltas across pooled trials — and is
// cleared only by Release.
func (k *Kernel) Switches() uint64 { return k.switches }

// Windows reports the cumulative number of symbol windows marked by
// MarkWindow. Like Switches it survives Reset and is cleared by Release.
func (k *Kernel) Windows() uint64 { return k.windows }

// Record appends an entry for p at site s to the attached trace (no-op
// without one). Higher layers use it to log syscall-level activity — the
// observability surface a defender would monitor. obj names the resource
// the call touched (object name, file path or signal target; "" for
// none) and a, b fill the site's integer slots (0 when unused). Nothing
// is formatted or boxed here: the detail renders from the site's format
// when the trace is read, so recording allocates only the trace's own
// growth and untraced runs pay one nil check.
func (k *Kernel) Record(p *Proc, s Site, obj string, a, b int64) {
	if k.trace != nil {
		k.trace.record(k.now, p, s, obj, a, b)
	}
}
