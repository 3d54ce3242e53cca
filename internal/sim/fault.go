package sim

// This file is the deterministic fault-injection plane (PR 10). The
// kernel carries a dedicated splitmix64 fault substream — the same
// pattern as the RNG's jitter substream — and consults it at the two
// scheduling choke points every protocol interaction passes through:
// Proc.Sleep (the OS-sleep primitive, covering schedule/dispatch
// latency) and the wake paths (Proc.Wake and Proc.WakeFused). Each
// consult draws one word and compares it against a fixed threshold; a
// hit draws a second word to pick the fault class:
//
//	sleep hit:  crash the sleeping process ∣ spurious early wake ∣
//	            preemption burst (extra dispatch latency)
//	wake hit:   crash the parked wakee ∣ lost wake ∣ delayed wake
//
// Determinism: the substream is seeded from (faultSeed, runSeed) alone
// and is consulted at call time — before the engine decides whether the
// event rides the heap, the fused slot or the replay ring — so the
// draw sequence, and with it the injected fault schedule, is identical
// across fused/replay/batch toggles, worker counts and machine pooling.
// At rate 0 the threshold is 0 and no word is ever drawn: faultrate=0
// runs are byte-identical to a kernel without the plane.
//
// Replay interaction: injected deviations are shape-compatible with a
// recorded skeleton (only times change), so the engine would not bail
// organically. Every injection therefore explicitly bails the open
// replay window before it perturbs anything, and a crash — which
// changes the process count — disarms replay for the rest of the run.
// Replayed or batched windows never run across an injected fault.

const (
	// gammaFault is the Weyl increment of the fault substream; a distinct
	// odd constant decorrelates it from the primary and jitter streams.
	gammaFault = 0xbb67ae8584caa73b
	// faultPhase offsets the substream's initial state so equal mixed
	// seeds in different streams still diverge from the first draw.
	faultPhase = 0x510e527fade682d1
	// faultQuantum is the unit of injected latency: one modeled
	// scheduler quantum. Preemption bursts add 1–8 quanta to a dispatch,
	// delayed wakes 1–8 quanta to a delivery.
	faultQuantum = 100 * Microsecond
)

// FaultStats counts the faults injected since the kernel was last
// reset, by class. Cleared by Reset/ResetTo (ArmFaults re-arms after).
type FaultStats struct {
	Spurious uint64 // sleeps cut short (spurious wakeups)
	Preempts uint64 // sleeps stretched by a preemption burst
	Lost     uint64 // wakes dropped
	Delayed  uint64 // wakes deferred by extra quanta
	Crashes  uint64 // processes killed mid-trial
}

// mix64 is the splitmix64 finalizer: a bijective avalanche used to fold
// the fault and run seeds into one substream origin.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ArmFaults enables fault injection for the run ahead: each consult
// point hits with probability rate, drawing from a substream derived
// from faultSeed and runSeed only. Rate 0 disarms the plane (its hooks
// reduce to one always-false compare). Must be called after Reset or
// ResetTo, which clear the fault state.
func (k *Kernel) ArmFaults(rate float64, faultSeed, runSeed uint64) {
	k.fstats = FaultStats{}
	if rate <= 0 {
		k.fthresh, k.fstate = 0, 0
		return
	}
	if rate >= 1 {
		k.fthresh = ^uint64(0)
	} else {
		// rate·2^53 is exact for rate < 1; shifting to the full word
		// keeps the compare branch-free without the implementation-
		// defined float→uint64 conversion of rate·2^64.
		t := uint64(rate*(1<<53)) << 11
		if t == 0 {
			t = 1
		}
		k.fthresh = t
	}
	k.fstate = (mix64(faultSeed^mix64(runSeed)) + gammaFault) ^ faultPhase
}

// FaultsArmed reports whether the fault plane is active for this run.
func (k *Kernel) FaultsArmed() bool { return k.fthresh != 0 }

// FaultStats returns the per-run injection counters. Higher layers read
// Crashes after a failed Run to classify crash-induced failures.
func (k *Kernel) FaultStats() FaultStats { return k.fstats }

// faultUint64 advances the fault substream one word.
//
//mes:allocfree
func (k *Kernel) faultUint64() uint64 {
	k.fstate += gammaFault
	return mix64(k.fstate)
}

// faultBailReplay pins the never-replay-across-a-fault invariant:
// injected deviations keep the recorded event shape (only times move),
// so the engine must be told, not left to notice.
//
//mes:allocfree
func (k *Kernel) faultBailReplay() {
	if k.rstate >= replayRecord {
		k.replayBail()
	}
}

// faultSleep consults the plane for one sleep of the given effective
// duration and returns the possibly perturbed duration. Classes:
// crash (the sleeping process dies here — does not return), spurious
// early wake (the sleep is cut to 1/8–4/8 of its span), preemption
// burst (1–8 extra quanta of dispatch latency). Callers guard on
// k.fthresh != 0.
//
//mes:allocfree
func (k *Kernel) faultSleep(p *Proc, total Duration) Duration {
	if k.faultUint64() >= k.fthresh {
		return total
	}
	k.faultBailReplay()
	r := k.faultUint64()
	switch {
	case r&15 == 0:
		k.crashSelf(p) // panics; does not return
		return total
	case r&15 < 8:
		k.fstats.Spurious++
		return total * Duration(1+(r>>4)&3) / 8
	default:
		k.fstats.Preempts++
		return total + faultQuantum*Duration(1+(r>>4)&7)
	}
}

// faultWake consults the plane for one wake delivery. It returns the
// possibly perturbed delay and whether the wake should be scheduled at
// all. Classes: crash (the parked wakee is unwound in place; degrades
// to a lost wake when the target is not crash-eligible), lost wake,
// delayed wake (1–8 extra quanta). Callers guard on k.fthresh != 0.
//
//mes:allocfree
func (k *Kernel) faultWake(q *Proc, delay Duration) (Duration, bool) {
	if k.faultUint64() >= k.fthresh {
		return delay, true
	}
	k.faultBailReplay()
	r := k.faultUint64()
	switch {
	case r&15 == 0:
		if q.state == ProcParked && q.hostParked {
			k.crashParked(q)
			return 0, false
		}
		// Not parked in a resumable yield (mid-transfer, done, created):
		// the crash degrades deterministically to a lost wake — the
		// substream has advanced identically either way.
		k.fstats.Lost++
		return 0, false
	case r&15 < 8:
		k.fstats.Lost++
		return 0, false
	default:
		k.fstats.Delayed++
		return delay + faultQuantum*Duration(1+(r>>4)&7), true
	}
}

// crashSelf kills the currently running process from inside its own
// Sleep: the body unwinds via the procAbort sentinel (running its
// deferred functions — the OS model's wait-queue unwind hooks ride
// them), the coroutine exits, and control returns to the resumer as if
// the body had completed. The crashed flag makes later wakes targeting
// the corpse drop instead of panicking.
func (k *Kernel) crashSelf(p *Proc) {
	if k.rstate != replayOff {
		k.replayDisarm()
	}
	k.fstats.Crashes++
	p.crashed = true
	p.state = ProcDone
	k.live--
	k.Record(p, SiteCrash, "", 0, 0)
	panic(procAbort{})
}

// crashParked kills a process parked in a resumable yield: cancelling
// its coroutine makes the in-flight transferOut return false, the body
// unwinds synchronously on its own goroutine (deferred unwind hooks
// run before cancel returns), and the structure is left Done exactly
// like a finished process.
func (k *Kernel) crashParked(q *Proc) {
	if k.rstate != replayOff {
		k.replayDisarm()
	}
	k.fstats.Crashes++
	q.crashed = true
	k.Record(q, SiteCrash, "", 0, 0)
	q.co.cancel()
	q.detach()
	q.state = ProcDone
	k.live--
}

// InjectCrash is the test seam for the crash path: it kills p if it is
// currently parked in a resumable yield, reporting whether it did. It
// shares crashParked with the fault plane, so regression tests exercise
// the exact production unwind.
func (k *Kernel) InjectCrash(p *Proc) bool {
	if p.state != ProcParked || !p.hostParked || p.crashed {
		return false
	}
	k.crashParked(p)
	return true
}

// PendingWakeFor reports whether an undelivered wake targeting p exists
// in the heap, the fused slot or the replay ring. The OS model's trial
// watchdog checks it before force-waking a blocked process: rescuing a
// process whose wake is already in flight would make the late delivery
// hit a non-parked target and panic.
func (k *Kernel) PendingWakeFor(p *Proc) bool {
	if k.hasFused && k.fused.kind == evWake && k.fused.proc == p {
		return true
	}
	for i := range k.ring {
		if k.ringMask&(1<<uint(i)) != 0 && k.ring[i].kind == evWake && k.ring[i].proc == p {
			return true
		}
	}
	for i := range k.events {
		if k.events[i].kind == evWake && k.events[i].proc == p {
			return true
		}
	}
	return false
}
