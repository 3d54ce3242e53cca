package timing

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mes/internal/sim"
)

func TestProfileForCoversMatrix(t *testing.T) {
	for _, os := range []OSKind{Windows, Linux} {
		for _, iso := range []Isolation{Local, Sandbox, VM} {
			p := ProfileFor(os, iso)
			if p.OS != os || p.Iso != iso {
				t.Errorf("ProfileFor(%v,%v) = %v/%v", os, iso, p.OS, p.Iso)
			}
			if p.Name == "" {
				t.Errorf("ProfileFor(%v,%v) has empty name", os, iso)
			}
		}
	}
}

func TestCostNonNegative(t *testing.T) {
	f := func(seed uint64, opRaw uint8) bool {
		p := ProfileFor(Windows, Local)
		r := sim.NewRNG(seed)
		op := Op(int(opRaw) % int(numOps))
		for i := 0; i < 32; i++ {
			if p.Cost(r, op) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinuxSleepFloor(t *testing.T) {
	p := Noiseless(Linux, Local)
	r := sim.NewRNG(1)
	extra := p.SleepExtra(r, sim.Micro(10))
	if got := sim.Micro(10) + extra; got != sim.Micro(58) {
		t.Fatalf("effective sleep = %v, want 58µs floor", got)
	}
	extra = p.SleepExtra(r, sim.Micro(100))
	if extra != 0 {
		t.Fatalf("sleep above floor paid %v extra in noiseless profile", extra)
	}
}

func TestWindowsSleepOvershoot(t *testing.T) {
	p := ProfileFor(Windows, Local)
	r := sim.NewRNG(2)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.SleepExtra(r, sim.Micro(100)).Micros()
	}
	mean := sum / n
	if math.Abs(mean-24) > 1.0 {
		t.Fatalf("mean overshoot = %.2fµs, want ~24µs", mean)
	}
}

func TestHazardRateScalesWithExposure(t *testing.T) {
	p := ProfileFor(Windows, Local)
	r := sim.NewRNG(3)
	count := func(exposure sim.Duration) int {
		n := 0
		for i := 0; i < 200000; i++ {
			if p.Hazard(r, exposure) > 0 {
				n++
			}
		}
		return n
	}
	short := count(sim.Micro(20))
	long := count(sim.Micro(200))
	if long < short*5 {
		t.Fatalf("hazard occurrences: exposure 20µs → %d, 200µs → %d; want ~10× growth", short, long)
	}
}

func TestHazardZeroExposure(t *testing.T) {
	p := ProfileFor(Linux, Local)
	r := sim.NewRNG(4)
	for i := 0; i < 100; i++ {
		if p.Hazard(r, 0) != 0 {
			t.Fatal("hazard on zero exposure")
		}
	}
}

func TestMissGrowsPastKnee(t *testing.T) {
	p := ProfileFor(Linux, Local)
	r := sim.NewRNG(5)
	freq := func(hold sim.Duration) float64 {
		n := 0
		const trials = 200000
		for i := 0; i < trials; i++ {
			if p.Miss(r, hold) {
				n++
			}
		}
		return float64(n) / trials
	}
	atPlateau := freq(sim.Micro(160))
	atTail := freq(sim.Micro(320))
	if atPlateau > 0.01 {
		t.Fatalf("miss probability at 160µs = %.4f, want < 1%%", atPlateau)
	}
	if atTail < 2*atPlateau {
		t.Fatalf("miss at 320µs (%.4f) should clearly exceed plateau (%.4f)", atTail, atPlateau)
	}
}

func TestIsolationPenaltiesOrdered(t *testing.T) {
	r := sim.NewRNG(6)
	local := ProfileFor(Windows, Local)
	sandbox := ProfileFor(Windows, Sandbox)
	vm := ProfileFor(Windows, VM)
	if local.Cross(r) != 0 {
		t.Fatal("local profile charges crossing cost")
	}
	var sb, v float64
	for i := 0; i < 10000; i++ {
		sb += sandbox.Cross(r).Micros()
		v += vm.Cross(r).Micros()
	}
	if !(v > sb && sb > 0) {
		t.Fatalf("crossing cost ordering violated: sandbox=%.1f vm=%.1f", sb, v)
	}
	if vm.HazardScale <= sandbox.HazardScale || sandbox.HazardScale <= local.HazardScale {
		t.Fatal("hazard scale should grow with isolation distance")
	}
}

func TestNoiselessIsDeterministic(t *testing.T) {
	p := Noiseless(Windows, Local)
	r := sim.NewRNG(7)
	c1 := p.Cost(r, OpLock)
	c2 := p.Cost(r, OpLock)
	if c1 != c2 || c1 != p.OpCost[OpLock] {
		t.Fatalf("noiseless cost varies: %v vs %v (base %v)", c1, c2, p.OpCost[OpLock])
	}
	if p.Hazard(r, sim.Micro(1000)) != 0 {
		t.Fatal("noiseless profile produced hazard")
	}
	if p.Miss(r, sim.Micro(1000)) {
		t.Fatal("noiseless profile produced miss")
	}
}

func TestHooksAdapter(t *testing.T) {
	p := ProfileFor(Linux, Local)
	h := p.Hooks()
	r := sim.NewRNG(8)
	if extra := h.SleepLatency(r, sim.Micro(10)); extra < sim.Micro(40) {
		t.Fatalf("adapter sleep latency %v, want ≥ floor gap", extra)
	}
	if j := h.ExecJitter(r, sim.Micro(5)); j < 0 {
		t.Fatalf("negative exec jitter %v", j)
	}
}

func TestOpStringTotal(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.String() == "op?" || op.String() == "" {
			t.Errorf("op %d has no name", op)
		}
	}
}

// TestLazyProfilesConcurrentFirstUse: goroutines racing to make a slot's
// first request all get the one table the slot built, and its contents
// equal a fresh build. A private matrix guarantees every request is a
// first one; the package-level matrices behind ProfileFor and Noiseless
// (possibly built by earlier tests) go through the same checks. The race
// detector (make race) checks the publication.
func TestLazyProfilesConcurrentFirstUse(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(OSKind, Isolation) Profile
		get   func(OSKind, Isolation) Profile
	}{
		{"calibrated", calibrated, ProfileFor},
		{"noiseless", noiselessProfile, Noiseless},
	} {
		fresh := &lazyProfiles{build: c.build}
		for _, get := range []func(OSKind, Isolation) Profile{fresh.get, c.get} {
			const racers = 16
			got := make([][2][3]Profile, racers)
			var start, done sync.WaitGroup
			start.Add(1)
			for g := range got {
				done.Add(1)
				go func() {
					defer done.Done()
					start.Wait()
					for os := range 2 {
						for iso := range 3 {
							got[g][os][iso] = get(OSKind(os), Isolation(iso))
						}
					}
				}()
			}
			start.Done()
			done.Wait()
			for os := range 2 {
				for iso := range 3 {
					want := c.build(OSKind(os), Isolation(iso))
					first := got[0][os][iso]
					if first.quant == nil || *first.quant != *want.quant {
						t.Fatalf("%s %v/%v: tables differ from a fresh build", c.name, OSKind(os), Isolation(iso))
					}
					first.quant, want.quant = nil, nil
					if first != want {
						t.Fatalf("%s %v/%v: profile %+v, want %+v", c.name, OSKind(os), Isolation(iso), first, want)
					}
					for g := range got {
						if got[g][os][iso].quant != got[0][os][iso].quant {
							t.Fatalf("%s %v/%v: racer %d got its own tables", c.name, OSKind(os), Isolation(iso), g)
						}
					}
				}
			}
		}
	}
}

// TestOutOfRangeProfilesBuildAfresh: pairs outside the OS × isolation
// matrix are built on every call, never cached, from the Linux base.
func TestOutOfRangeProfilesBuildAfresh(t *testing.T) {
	a, b := ProfileFor(OSKind(7), Local), ProfileFor(OSKind(7), Local)
	if a.quant == b.quant || *a.quant != *b.quant {
		t.Fatal("out-of-range ProfileFor should build equal tables afresh per call")
	}
	if a.OS != Linux || a.Name != "linux/local" {
		t.Fatalf("out-of-range ProfileFor = %s (%v), want the Linux base", a.Name, a.OS)
	}
	if n := Noiseless(Linux, Isolation(9)); n.Iso != Isolation(9) || n.HazardRatePerSec != 0 || n.quant == nil {
		t.Fatalf("out-of-range Noiseless = %+v", n)
	}
}
