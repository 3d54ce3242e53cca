package osmodel

import (
	"errors"

	"mes/internal/sim"
	"mes/internal/timing"
)

// POSIX-style signals: the paper (§IV.A) classifies signal alongside the
// MESMs as low-level communication and leaves a signal-based covert
// channel as future work. This file models the minimum needed to build
// one: a process can block waiting for a signal (sigwait) and another
// process can deliver one (kill), with delivery latency and crossing
// penalties like every other wake path.

// ErrNoProcess reports a kill to a process that cannot receive signals.
var ErrNoProcess = errors.New("osmodel: target process cannot receive signals")

// SigWait blocks until a signal with the given number arrives, returning
// the wait result. Pending signals (delivered while not waiting) are
// consumed immediately — standard pending-set semantics.
func (p *Proc) SigWait(sig int) int {
	p.exec(timing.OpWaitRegister)
	if p.pendingSignals[sig] > 0 {
		p.pendingSignals[sig]--
		return WaitObject0
	}
	p.sigWaiting = sig
	v := p.park()
	p.sigWaiting = -1
	return v
}

// Kill delivers signal sig to target. If the target is blocked in SigWait
// for it, it is woken with delivery latency (plus crossing penalty when
// the signal traverses an isolation boundary); otherwise the signal is
// left pending.
func (p *Proc) Kill(target *Proc, sig int) error {
	p.exec(timing.OpSet)
	if target == nil {
		return ErrNoProcess
	}
	if p.dom != target.dom {
		if d := p.sys.prof.Cross(p.rng); d > 0 {
			p.sp.Advance(d)
		}
	}
	p.sys.k.Record(p.sp, sim.SiteKill, target.name, int64(sig), 0)
	if target.sigWaiting == sig {
		delay := p.sys.prof.Cost(target.rng, timing.OpWakeDeliver)
		if p.dom != target.dom {
			delay += p.sys.prof.Cross(target.rng)
		}
		target.sp.Wake(delay, WaitObject0)
		return nil
	}
	if target.pendingSignals == nil {
		target.pendingSignals = make(map[int]int)
	}
	target.pendingSignals[sig]++
	return nil
}
