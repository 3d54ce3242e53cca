package timing

import (
	"sync"

	"mes/internal/sim"
)

// Calibration. The constants below were tuned so the simulated channels
// land in the paper's reported bands (Table IV/V/VI and Figs. 9–10) with
// the paper's own time parameters. They model an i5-7400-class desktop:
//
//   - Windows kernel-object syscalls are a few µs; Sleep() overshoots by
//     ~24µs (timer granularity + dispatcher), which is the dominant
//     per-bit overhead of the cooperation channels and of the trojan side
//     of contention channels.
//   - Linux flock syscalls are slightly cheaper, sleeps have the ~58µs
//     wake floor (§V.C) with small overshoot, and the fine-grained
//     inter-bit barrier costs ~11µs a side (futex wake round).
//   - "System blocking" outliers: a few hundred events per second of
//     observed wait time, lognormal magnitude with median ≈ 20µs, capped
//     below one bit period (longer delays are rounds the §V.B sync check
//     discards). This gives Fig. 9(a)'s behaviour: with a 15µs guard band
//     (ti=30µs) errors exceed 1% and grow with tw0; with ≥35µs guard they
//     stay under 1%.
//   - Late contended-acquisition attempts: ~5% of contended acquisitions
//     are late by a lognormal amount (median ≈ 37µs), flipping bits only
//     while tt1/2 is comparable to the delay (Fig. 10's left side).
//   - Contended-acquisition misses: base ≈ 0.4%, growing once holds pass
//     the knee (Fig. 10's right side).
//   - Wholesale observation corruption ≈ 0.5%: the guard-independent BER
//     floor in every table cell.
//
// The Profile field comments in profile.go describe the full model; the
// table4/table5/table6 experiments (mesbench -exp table4) print measured
// numbers next to the paper's.

// windowsLocal is the base Windows 10 profile on the host.
func windowsLocal() Profile {
	p := Profile{
		Name:          "windows/local",
		OS:            Windows,
		Iso:           Local,
		OpJitterFrac:  0.08,
		OpJitterFloor: sim.Micro(0.15),

		SleepFloor:          sim.Micro(1),
		SleepOvershootMean:  sim.Micro(24),
		SleepOvershootSigma: sim.Micro(2.0),

		HazardRatePerSec:  420,
		HazardMagMuLogUs:  3.0, // median e^3 ≈ 20µs
		HazardMagSigmaLog: 0.55,
		HazardScale:       1.0,

		AttemptProb:        0.05,
		AttemptMagMuLogUs:  3.6, // median ≈ 37µs
		AttemptMagSigmaLog: 0.45,

		CorruptProb: 0.0065,

		MissBase:       0.0045,
		MissKnee:       sim.Micro(300),
		MissSlopePerUs: 0.00080,

		BarrierLag: sim.Micro(10),
	}
	//mes:mechtable Op
	p.OpCost = [numOps]sim.Duration{
		OpTimestamp:    sim.Micro(0.3),
		OpJudge:        sim.Micro(1.2),
		OpLock:         sim.Micro(3.2),
		OpUnlock:       sim.Micro(2.4),
		OpSemP:         sim.Micro(7.5),
		OpSemV:         sim.Micro(7.5),
		OpMutexAcquire: sim.Micro(3.6),
		OpMutexRelease: sim.Micro(2.8),
		OpSet:          sim.Micro(2.6),
		OpReset:        sim.Micro(1.8),
		OpTimerSet:     sim.Micro(6.8),
		OpWaitRegister: sim.Micro(1.6),
		OpWakeDeliver:  sim.Micro(5.2),
		OpOpen:         sim.Micro(4.5),
		OpCreate:       sim.Micro(6.0),
		OpClose:        sim.Micro(1.5),
		OpRead:         sim.Micro(3.0),
		OpBarrier:      sim.Micro(1.2),
		// Extension mechanisms (the family beyond the paper's six). Windows
		// approximations of the Linux-native primitives: WaitOnAddress /
		// keyed events for futex, SRW-backed condition variables, and
		// FlushFileBuffers with NTFS-journal writeback.
		OpFutexWait:  sim.Micro(2.6),
		OpFutexWake:  sim.Micro(3.0),
		OpCondWait:   sim.Micro(2.4),
		OpCondSignal: sim.Micro(2.6),
		OpWrite:      sim.Micro(3.4),
		OpFsync:      sim.Micro(9.0),
		OpPageFlush:  sim.Micro(13.0),
	}
	return p
}

// linuxLocal is the base Ubuntu 16.04 (kernel 4.15) profile on the host.
func linuxLocal() Profile {
	p := Profile{
		Name:          "linux/local",
		OS:            Linux,
		Iso:           Local,
		OpJitterFrac:  0.08,
		OpJitterFloor: sim.Micro(0.12),

		SleepFloor:          sim.Micro(58), // §V.C: 58µs to wake the sleep function
		SleepOvershootMean:  sim.Micro(2.0),
		SleepOvershootSigma: sim.Micro(0.8),

		HazardRatePerSec:  280,
		HazardMagMuLogUs:  3.0,
		HazardMagSigmaLog: 0.55,
		HazardScale:       1.0,

		AttemptProb:        0.05,
		AttemptMagMuLogUs:  3.6,
		AttemptMagSigmaLog: 0.45,

		CorruptProb: 0.0050,

		MissBase:       0.0040,
		MissKnee:       sim.Micro(230),
		MissSlopePerUs: 0.00080,

		BarrierLag: sim.Micro(16),
	}
	//mes:mechtable Op
	p.OpCost = [numOps]sim.Duration{
		OpTimestamp:    sim.Micro(0.25),
		OpJudge:        sim.Micro(1.0),
		OpLock:         sim.Micro(2.8),
		OpUnlock:       sim.Micro(2.0),
		OpSemP:         sim.Micro(6.0),
		OpSemV:         sim.Micro(6.0),
		OpMutexAcquire: sim.Micro(3.0),
		OpMutexRelease: sim.Micro(2.2),
		OpSet:          sim.Micro(2.2),
		OpReset:        sim.Micro(1.5),
		OpTimerSet:     sim.Micro(6.0),
		OpWaitRegister: sim.Micro(1.4),
		OpWakeDeliver:  sim.Micro(5.8),
		OpOpen:         sim.Micro(4.0),
		OpCreate:       sim.Micro(5.5),
		OpClose:        sim.Micro(1.2),
		OpRead:         sim.Micro(2.6),
		OpBarrier:      sim.Micro(11.0),
		// Extension mechanisms: native futex(2), futex-backed
		// process-shared pthread condvars, and ext4's shared-journal fsync
		// (the Sync+Sync / Write+Sync observable: syncing one file writes
		// back every dirty page in the journal at ~12µs per SSD page).
		OpFutexWait:  sim.Micro(2.0),
		OpFutexWake:  sim.Micro(2.4),
		OpCondWait:   sim.Micro(2.2),
		OpCondSignal: sim.Micro(2.4),
		OpWrite:      sim.Micro(3.0),
		OpFsync:      sim.Micro(7.5),
		OpPageFlush:  sim.Micro(12.0),
	}
	return p
}

// forIsolation derives a scenario variant of a base profile: crossing
// penalties and a noisier hazard environment. It leaves the quantized
// tables unbuilt, so each builder below builds them once, after its last
// parameter change.
func (p Profile) forIsolation(iso Isolation) Profile {
	q := p
	q.Iso = iso
	switch iso {
	case Local:
		q.CrossCost, q.CrossJitter = 0, 0
	case Sandbox:
		// Firejail / Sandboxie: every signaling op "breaks" the sandbox
		// wall (paper §V.C.2: longer transmission than local).
		q.CrossCost = sim.Micro(2.2)
		q.CrossJitter = sim.Micro(0.5)
		q.HazardScale = p.HazardScale * 1.12
	case VM:
		// Hyper-V / KVM: the signal path traverses the hypervisor
		// (paper §V.C.3: TR decreases, paths become longer).
		q.CrossCost = sim.Micro(11.0)
		q.CrossJitter = sim.Micro(2.0)
		q.HazardScale = p.HazardScale * 1.2
		// The hypervisor path doubles the jitter around the barrier exit;
		// the Trojan needs a wider head start to keep its queue position.
		q.BarrierLag = p.BarrierLag + sim.Micro(8)
	}
	q.Name = p.OS.String() + "/" + iso.String()
	return q
}

// profiles and noiseless hold the calibrated and noiseless OS × isolation
// profiles, indexed by the two iota enums and each built on its first
// request: a run pays for the quantized tables (~55KB a profile) of the
// slots it touches, not for all twelve at package init. Profiles are pure
// values (the op-cost table is an array), so handing out copies of a built
// slot keeps ProfileFor and Noiseless allocation-free on the
// per-transmission path — deriving a profile on demand would pay
// forIsolation's name concatenation and a table build every call.
var (
	profiles  = lazyProfiles{build: calibrated}
	noiseless = lazyProfiles{build: noiselessProfile}
)

// lazyProfiles is one OS × isolation matrix of profiles, built per slot
// on first use. Concurrent first requests for a slot block until the one
// build finishes, so every caller shares the same tables.
type lazyProfiles struct {
	build func(OSKind, Isolation) Profile
	slots [2][3]struct {
		once sync.Once
		p    Profile
	}
}

// get returns the (os, iso) profile, building its slot on first use. Pairs
// outside the matrix are built afresh on every call.
func (c *lazyProfiles) get(os OSKind, iso Isolation) Profile {
	if os < 0 || int(os) >= len(c.slots) || iso < 0 || int(iso) >= len(c.slots[0]) {
		return c.build(os, iso)
	}
	s := &c.slots[os][iso]
	s.once.Do(func() { s.p = c.build(os, iso) })
	return s.p
}

// baseProfile returns the local profile an OS's variants derive from; any
// OS other than Windows gets the Linux one.
func baseProfile(os OSKind) Profile {
	if os == Windows {
		return windowsLocal()
	}
	return linuxLocal()
}

// calibrated builds the calibrated profile for an OS/scenario pair.
func calibrated(os OSKind, iso Isolation) Profile {
	p := baseProfile(os).forIsolation(iso)
	p.initSigma()
	return p
}

// noiselessProfile builds the noiseless variant of calibrated(os, iso):
// the same op costs, every stochastic component zeroed.
func noiselessProfile(os OSKind, iso Isolation) Profile {
	p := baseProfile(os).forIsolation(iso)
	p.Name += "/noiseless"
	p.OpJitterFrac = 0
	p.OpJitterFloor = 0
	p.SleepOvershootMean = 0
	p.SleepOvershootSigma = 0
	p.HazardRatePerSec = 0
	p.AttemptProb = 0
	p.CorruptProb = 0
	p.MissBase = 0
	p.MissSlopePerUs = 0
	p.CrossJitter = 0
	p.initSigma()
	return p
}

// ProfileFor returns the calibrated profile for an OS/scenario pair.
func ProfileFor(os OSKind, iso Isolation) Profile { return profiles.get(os, iso) }

// Noiseless returns a profile with the same op costs but no stochastic
// components: exact sleeps (still floor-limited), no jitter, no hazard, no
// misses. Used by protocol unit tests and the ideal-channel analyses.
func Noiseless(os OSKind, iso Isolation) Profile { return noiseless.get(os, iso) }
