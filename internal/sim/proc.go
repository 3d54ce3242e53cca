package sim

import (
	"fmt"
)

// ProcState enumerates the lifecycle of a simulated process.
type ProcState int

// Process lifecycle states.
const (
	ProcCreated ProcState = iota
	ProcRunning
	ProcSleeping // blocked with a scheduled wake event
	ProcParked   // blocked awaiting an external Wake
	ProcDone
)

func (s ProcState) String() string {
	switch s {
	case ProcCreated:
		return "created"
	case ProcRunning:
		return "running"
	case ProcSleeping:
		return "sleeping"
	case ProcParked:
		return "parked"
	case ProcDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// procAbort is the sentinel panic a Kernel.Reset throws through an
// abandoned process body to unwind its coroutine (see coroHandle.cancel).
// It is recovered inside runBody and never escapes the sim package.
type procAbort struct{}

// Proc is a simulated process. Its body runs on a coroutine (an iter.Pull
// transfer on every build — see coro.go for why the linker rules out a
// bare runtime.coroswitch; never a scheduler park/unpark round-trip), and
// the kernel guarantees at most one body executes at a time, so bodies may
// use plain Go code without synchronization. All methods below must be
// called from within the owning body.
type Proc struct {
	k    *Kernel
	id   int
	name string
	body func(*Proc)

	// Coroutine handoff state (see coro.go for the contract). The
	// coroutine is persistent: after the body returns it parks in loop's
	// idle transferOut, so a recycled Proc restarts its next body with
	// zero new allocations.
	co coroHandle

	state ProcState

	// wakeValue carries a result from Wake to the Park caller.
	wakeValue int

	// Direct-handoff state (host). inChain marks a process blocked inside
	// the resume call of another process's coroutine: it cannot be resumed
	// until that call returns, so events targeting it are passed up the
	// resume chain via k.handoff. hostParked marks a process parked inside
	// its host frame's yield — the resumable blocked state. handed marks a
	// hostParked process whose dispatch/wake was delivered in place before
	// resuming it (wakeValue already set): its host frame returns straight
	// to the body without touching k.handoff, skipping two 48-byte event
	// copies on the dominant block→wake path.
	inChain    bool
	hostParked bool
	handed     bool

	// crashed marks a process killed by the fault plane (see fault.go):
	// Done like a finished process, but wakes already in flight — or
	// issued later by peers that have not noticed — drop silently
	// instead of tripping the lost-wakeup panic.
	crashed bool
}

// loop is the coroutine entry point: it runs process bodies until the
// kernel cancels the coroutine or stops recycling. On a recycling kernel
// (one that has been Reset — the pooled-machine case) a completed body
// parks in an idle yield; SpawnAt then installs a fresh body and the next
// dispatch resumes the loop, reusing the coroutine and its goroutine with
// no allocation. On a one-shot kernel the goroutine exits with the body:
// an idle-parked goroutine's stack is a GC root that would pin the whole
// machine forever if the kernel were simply dropped.
func (p *Proc) loop() {
	for p.runBody() {
		if !p.k.recycle {
			p.detach()
			return
		}
		if !p.co.transferOut() { // idle until recycled; false = kernel cancelled
			return
		}
	}
	// runBody returned false: the body was unwound (Reset, or a fault-
	// plane crash) or panicked for real. The coroutine is exiting, so
	// forget the handle — a recycled respawn of this structure must
	// build a fresh one, not transfer into an exhausted coroutine.
	p.detach()
}

// detach forgets the coroutine: a future respawn of this structure builds
// a fresh one. Called either from inside the exiting coroutine (loop) or
// after cancelling it (Reset/Release); the kernel only reads the handle
// between dispatches, so both are safe.
func (p *Proc) detach() {
	p.co.drop()
}

// runBody executes one body to completion. It reports whether the
// coroutine should keep living: false means either a Reset unwound the
// body with the procAbort sentinel or the body panicked; in both cases
// the coroutine must finalize. A real panic is captured here, at its
// origin, into k.pendingPanic — not re-raised through iter.Pull — so no
// resume call anywhere up the host chain needs its own recover, and
// Kernel.Run re-panics with the body's original value once the chain has
// unwound (it checks panicPending before and after every event).
func (p *Proc) runBody() (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, aborted := r.(procAbort); aborted {
				return // completed stays false: Reset cancelled this body
			}
			p.k.pendingPanic, p.k.panicPending = r, true
		}
	}()
	p.body(p)
	p.state = ProcDone
	p.k.live--
	p.k.Record(p, SiteExit, "", 0, 0)
	return true
}

// yield blocks the process until its next dispatch or wake. The caller
// must have arranged for that future event. On a Run-driven kernel the
// blocked process becomes a host: it keeps the scheduler loop running on
// its own goroutine (see host), so the simulation switches straight from
// the blocking process to the next runnable one.
func (p *Proc) yield(s ProcState) {
	p.state = s
	p.host()
	p.state = ProcRunning
}

// yieldOut parks the process in its coroutine yield, handing control back
// to whoever resumed it — the kernel's Run/Step loop or another process's
// host frame. If the kernel cancelled the coroutine while we were parked
// (a Reset mid-wait), the body is unwound via the procAbort sentinel.
func (p *Proc) yieldOut() {
	p.hostParked = true
	ok := p.co.transferOut()
	p.hostParked = false
	if !ok {
		panic(procAbort{})
	}
}

// host is the migrating scheduler loop: it runs on the goroutine of a
// process whose body just blocked, popping events and switching directly
// to their targets, and returns when this process's own dispatch or wake
// arrives. Three cases route a popped dispatch/wake (parked in
// k.handoff):
//
//   - it targets this process: consume it and return to the body;
//   - it targets a process blocked in a resume call beneath us (inChain —
//     an ancestor of this host frame): park; our resumer's host frame
//     re-examines the handoff, so it unwinds exactly to its target;
//   - it targets a resumable process: switch to it. That process's frames
//     now run above ours; when it blocks, its host frame continues the
//     schedule, and our resume call returns once an event for us (or an
//     ancestor) unwinds back down.
//
// When no event may run — queue drained, Stop, horizon, everyone finished,
// a captured panic, or a Step-driven kernel (!hosting) — the host parks
// and the decision unwinds to Kernel.Run/Step. Body panics never unwind an
// innocent host's body frames: runBody captures them at the origin and
// they travel to Run via k.pendingPanic instead.
func (p *Proc) host() {
	k := p.k
	for {
		if p.handed {
			// Our event was delivered in place by the host that resumed
			// us (or Kernel.deliver): nothing to route, just run.
			p.handed = false
			k.running = p
			return
		}
		if k.hasHandoff {
			e := k.handoff
			q := e.proc
			if q == p {
				k.hasHandoff = false
				k.running = p
				if e.kind == evWake {
					p.wakeValue = e.value
				}
				return
			}
			if q.inChain {
				p.yieldOut()
				continue
			}
			k.hasHandoff = false
			p.dispatch(e.kind, e.value, q)
			continue
		}
		if !k.hosting || k.panicPending || !k.runnable() {
			p.yieldOut()
			continue
		}
		at, kind, value, q, fn := k.popTop()
		if at > k.now {
			k.now = at
		}
		if kind == evGeneric {
			p.runDetached(fn)
			continue
		}
		k.checkWake(kind, q)
		if q == p {
			// Self-targeted events (the Sleep/Yield round trip) skip the
			// handoff buffer entirely.
			if kind == evWake {
				p.wakeValue = value
			}
			k.running = p
			return
		}
		if q.inChain {
			// Only in-chain targets still travel via k.handoff: the event
			// must unwind down the resume chain to a host frame that can
			// consume it.
			k.handoff, k.hasHandoff = event{at: at, kind: kind, value: value, proc: q}, true
			p.yieldOut()
			continue
		}
		p.dispatch(kind, value, q)
	}
}

// dispatch switches from this host frame to a resumable event target:
// hostParked targets get the event delivered in place (handed), fresh and
// idle-recycled coroutines are delivered by the resume itself. Body
// panics cannot surface from the resume — runBody captures them at the
// origin — so this frame needs no recover of its own.
func (p *Proc) dispatch(kind eventKind, value int, q *Proc) {
	k := p.k
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
	p.inChain = true
	k.resume(q)
	p.inChain = false
	k.running = p
}

// runDetached runs a generic event's fn from a host frame, capturing a
// panic so it reaches Kernel.Run without unwinding this process's body.
func (p *Proc) runDetached(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.k.pendingPanic, p.k.panicPending = r, true
		}
	}()
	fn()
}

// pause suspends the process until absolute time t with no model noise.
//
// Fast path: when the process would be the very next thing the kernel runs
// anyway — no queued event fires strictly before t, no tie to arbitrate,
// and neither Stop nor the horizon intervenes — the clock simply advances
// to t and the body keeps running on the same goroutine: no event is
// queued and no handoff happens. This is exactly the schedule the slow
// path would have produced, minus two context switches and a heap
// round-trip. Ties (an event already queued at t) must take the slow path
// so FIFO ordering by sequence number is preserved.
func (p *Proc) pause(t Time) {
	k := p.k
	if !k.stopped && (k.horizon <= 0 || t <= k.horizon) &&
		(len(k.events) == 0 || t < k.events[0].at) {
		k.now = t
		return
	}
	k.schedule(t, evDispatch, p, 0, nil)
	p.yield(ProcSleeping)
}

// ID returns the process's kernel-assigned id (1-based).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the process for d plus the timing model's wake-up latency.
// This models an OS sleep: §V.C of the paper notes the Linux scheduler
// needs ~58µs to wake a sleeping process, which the hooks encode.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	total := d
	if !p.k.nop {
		total += p.k.hooks.SleepLatency(p.k.rng, d)
	}
	if p.k.fthresh != 0 {
		// Fault plane (fault.go): may cut the sleep short, stretch it by
		// a preemption burst, or crash the process here. Consulted after
		// the model draw so the primary RNG stream is unperturbed.
		total = p.k.faultSleep(p, total)
	}
	p.k.Record(p, SiteSleep, "", int64(d), int64(total))
	p.pause(p.k.now.Add(total))
}

// Advance moves the process exactly d forward in virtual time with no
// model noise. Callers that have already drawn jittered costs (the OS
// model's priced syscalls) use this to avoid double-counting noise.
func (p *Proc) Advance(d Duration) {
	if d <= 0 {
		return
	}
	p.pause(p.k.now.Add(d))
}

// Exec consumes CPU for cost plus model jitter, advancing virtual time.
func (p *Proc) Exec(cost Duration) {
	if cost < 0 {
		cost = 0
	}
	total := cost
	if !p.k.nop {
		total += p.k.hooks.ExecJitter(p.k.rng, cost)
	}
	p.pause(p.k.now.Add(total))
}

// Park blocks until another process (or a kernel event) calls Wake. It
// returns the value passed to Wake.
func (p *Proc) Park() int {
	p.k.Record(p, SitePark, "", 0, 0)
	p.yield(ProcParked)
	return p.wakeValue
}

// Wake schedules p to resume after delay, delivering value to its Park.
// Waking a process that is not parked is a programming error: lost
// wakeups would silently corrupt channel timing measurements. A wake of
// a finished process panics at call time; one that finds its target not
// parked when it fires (still running, or sleeping) panics at fire time.
// With the fault plane armed the wake may be lost, delayed or convert
// into a crash of the wakee (fault.go); wakes of an already crashed
// process drop silently.
func (p *Proc) Wake(delay Duration, value int) {
	if p.crashed {
		return
	}
	if p.k.fthresh != 0 {
		var ok bool
		if delay, ok = p.k.faultWake(p, delay); !ok {
			return
		}
	}
	p.wakeRaw(delay, value)
}

// WakeDirect is Wake with the fault plane bypassed: the delivery path
// for recovery machinery (timeout timers, the trial watchdog) whose own
// wakes must not be subject to the faults they rescue the run from.
func (p *Proc) WakeDirect(delay Duration, value int) {
	if p.crashed {
		return
	}
	p.wakeRaw(delay, value)
}

// wakeRaw schedules the wake event unconditionally (fault consult and
// crashed-target drop already done by the caller).
func (p *Proc) wakeRaw(delay Duration, value int) {
	if p.state == ProcDone {
		panic(fmt.Sprintf("sim: Wake of finished process %q", p.name))
	}
	if delay < 0 {
		delay = 0
	}
	p.k.schedule(p.k.now.Add(delay), evWake, p, value, nil)
}

// Yield cedes the token, rescheduling the process at the current instant
// behind any already-queued events.
func (p *Proc) Yield() {
	p.pause(p.k.now)
}
