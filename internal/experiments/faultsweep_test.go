package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mes/internal/core"
)

// TestFaultSweepMonotoneAndDominance is the robustness extension's
// conformance gate: for every mechanism, mean BER must degrade
// monotonically with the fault rate (within each recovery mode), and the
// self-healing layer must strictly dominate recovery-off at at least one
// nonzero rate. The rate-0 baseline must be fault-free: no failed
// trials, no crashes, no resyncs.
func TestFaultSweepMonotoneAndDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep in -short mode")
	}
	resetSweepCaches()
	rows, err := FaultSweep(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	rates := faultSweepRateAxis(true)
	if want := len(core.Mechanisms()) * len(rates) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	// Index rows by (mechanism, recovery) → BER curve over faultSweepRates.
	type curveKey struct {
		m   core.Mechanism
		rec bool
	}
	curves := make(map[curveKey][]FaultSweepRow)
	for _, r := range rows {
		k := curveKey{r.Mechanism, r.Recover}
		curves[k] = append(curves[k], r)
		if r.Rate == 0 {
			if r.Failed != 0 || r.Crashed != 0 {
				t.Errorf("%v rec=%v: baseline column failed %d/%d trials (crashed %d); rate 0 must be fault-free",
					r.Mechanism, r.Recover, r.Failed, r.Trials, r.Crashed)
			}
			if r.MeanBER > 0.05 {
				t.Errorf("%v rec=%v: baseline BER %.4f, want a working channel", r.Mechanism, r.Recover, r.MeanBER)
			}
		}
	}
	const eps = 1e-9
	for _, m := range core.Mechanisms() {
		for _, rec := range []bool{false, true} {
			c := curves[curveKey{m, rec}]
			if len(c) != len(rates) {
				t.Fatalf("%v rec=%v: %d rates, want %d", m, rec, len(c), len(rates))
			}
			for i := 1; i < len(c); i++ {
				if c[i].MeanBER+eps < c[i-1].MeanBER {
					t.Errorf("%v rec=%v: BER not monotone in rate: %.4f@%.3f > %.4f@%.3f",
						m, rec, c[i-1].MeanBER, c[i-1].Rate, c[i].MeanBER, c[i].Rate)
				}
			}
		}
		off, on := curves[curveKey{m, false}], curves[curveKey{m, true}]
		dominated := false
		for i := range rates {
			if rates[i] == 0 {
				continue
			}
			if on[i].MeanBER < off[i].MeanBER-eps {
				dominated = true
			}
			if on[i].MeanBER > off[i].MeanBER+eps {
				t.Errorf("%v: recovery hurt at rate %.3f: on=%.4f off=%.4f",
					m, rates[i], on[i].MeanBER, off[i].MeanBER)
			}
		}
		if !dominated {
			t.Errorf("%v: recovery-on never strictly beat recovery-off at a nonzero rate", m)
		}
	}
}

// TestFaultSweepDeterministicAcrossEngines pins the fault substream's
// central contract at the sweep level: the rendered fault matrix — whose
// nonzero-rate cells actively inject faults and crash processes — is
// byte-identical in every corner of engineCorners (worker counts, first
// pass vs a second pass on recycled sessions and machines). Faults are
// drawn from a call-time substream, so the schedule must not depend on
// which machine or worker runs the cell.
func TestFaultSweepDeterministicAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-matrix engine cube in -short mode")
	}
	var base string
	for i, c := range engineCorners {
		resetSweepCaches()
		rows, err := FaultSweep(Options{Quick: true, Seed: 1, Workers: c.workers})
		if err != nil {
			t.Fatalf("FaultSweep (%s pass, workers=%d): %v", c.pass, c.workers, err)
		}
		got := RenderFaultSweep(rows)
		if i == 0 {
			base = got
			if !strings.Contains(base, "fault injection") {
				t.Fatal("fault sweep rendered no matrix")
			}
			continue
		}
		if got != base {
			t.Errorf("fault matrix diverged on the %s pass with workers=%d", c.pass, c.workers)
		}
	}
}

// TestFaultSweepCancellation pins the SIGINT path: mesbench wires
// os.Interrupt into Options.Ctx, and a cancelled context must abort the
// fault sweep with context.Canceled instead of grinding through the
// remaining fault matrix. Failed trials are data to this sweep, so
// cancellation is the only way it stops early — the contract must hold
// exactly where errors do not propagate.
func TestFaultSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resetSweepCaches()
	if _, err := FaultSweep(Options{Quick: true, Seed: 3, Ctx: ctx, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FaultSweep under cancelled ctx: err = %v, want context.Canceled", err)
	}
	resetSweepCaches()
}

// TestGlobalFaultRateLeavesPinnedCellsAlone: a sweep-wide Options
// fault rate must not contaminate cells pinned fault-free with the
// faultRateNone sentinel — the fault sweep's baseline column renders
// byte-identically with and without a global rate.
func TestGlobalFaultRateLeavesPinnedCellsAlone(t *testing.T) {
	run := func(o Options) []FaultSweepRow {
		resetSweepCaches()
		rows, err := FaultSweep(o)
		if err != nil {
			t.Fatalf("FaultSweep: %v", err)
		}
		return rows
	}
	clean := run(Options{Quick: true, Seed: 1})
	dirty := run(Options{Quick: true, Seed: 1, FaultRate: 0.5, FaultSeed: 99})
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("row %d changed under a global fault rate: %+v vs %+v", i, clean[i], dirty[i])
		}
	}
}
