package osmodel

import (
	"mes/internal/sim"
	"mes/internal/timing"
)

// Rendezvous is the fine-grained inter-bit synchronization barrier the
// contention channels require (paper §V.B): after every bit the Trojan and
// the Spy meet here, which breaks the Spy's continuous occupation of the
// critical resource and stops per-bit timing errors from accumulating.
//
// The barrier is role-aware: the leader (the Trojan — the side that must
// reach the critical resource first in each bit) leaves the barrier ahead
// of the follower by the profile's BarrierLag, regardless of which side
// arrived first. This encodes §V.B's acquisition-order requirement: under
// fair competition the resource is granted in queue order, so the Trojan's
// request must be queued before the Spy's.
type Rendezvous struct {
	sys     *System
	waiting *Proc
	rounds  int
}

// NewRendezvous creates a two-party barrier on the system.
func NewRendezvous(sys *System) *Rendezvous {
	return &Rendezvous{sys: sys}
}

// Init rebinds a (possibly embedded or recycled) rendezvous structure to
// sys and clears its per-trial state — equivalent to NewRendezvous(sys)
// without the allocation. Init with a nil sys detaches the structure so a
// pooled owner does not pin the machine.
func (r *Rendezvous) Init(sys *System) {
	r.sys, r.waiting, r.rounds = sys, nil, 0
}

// ArriveLead synchronizes the leader side (the Trojan). It reports false
// when the wait was force-timed-out by the trial watchdog (the peer
// crashed or its wake was lost) — the caller should abandon the round.
func (r *Rendezvous) ArriveLead(p *Proc) bool { return r.arrive(p, true) }

// ArriveFollow synchronizes the follower side (the Spy). See ArriveLead
// for the meaning of the return value.
func (r *Rendezvous) ArriveFollow(p *Proc) bool { return r.arrive(p, false) }

func (r *Rendezvous) arrive(p *Proc, lead bool) bool {
	p.exec(timing.OpBarrier)
	if r.waiting == nil {
		r.waiting = p
		p.waitRv = r
		return p.park() != WaitTimeout
	}
	first := r.waiting
	r.waiting = nil
	r.rounds++
	if lead {
		// The parked follower resumes after wake delivery plus the leader
		// head-start lag; the leader continues immediately.
		r.wakeWithLag(p, first, r.sys.prof.BarrierLag)
		return true
	}
	// The parked leader resumes after plain wake delivery; the follower
	// self-delays by the same delivery (including any crossing penalty the
	// leader's wake-up pays) plus the lag, preserving the head start.
	r.wakeWithLag(p, first, 0)
	delay := r.sys.prof.Cost(p.rng, timing.OpWakeDeliver) + r.sys.prof.BarrierLag
	if p.dom != first.dom {
		delay += r.sys.prof.Cross(p.rng)
	}
	p.sp.Advance(delay)
	return true
}

// wakeWithLag wakes the parked peer with wake delivery, a crossing penalty
// when applicable, and an extra lag.
//
//mes:allocfree
func (r *Rendezvous) wakeWithLag(caller, parked *Proc, lag sim.Duration) {
	delay := r.sys.prof.Cost(parked.rng, timing.OpWakeDeliver) + lag
	if caller.dom != parked.dom {
		delay += r.sys.prof.Cross(parked.rng)
	}
	parked.sp.Wake(delay, WaitObject0)
}

// Rounds reports how many completed rendezvous rounds have occurred.
func (r *Rendezvous) Rounds() int { return r.rounds }
