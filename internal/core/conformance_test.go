package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mes/internal/codec"
	"mes/internal/runner"
	"mes/internal/sim"
)

// conformanceBER is the acceptance bar every mechanism must clear at its
// default quick parameters. The calibrated channels all sit well under
// 1%; the bar is deliberately loose so it gates conformance (the channel
// works), not calibration (the channel matches the paper's bands —
// TestNoisyBERWithinPaperBand pins that).
const conformanceBER = 0.10

// conformanceSnapshot reduces a Result to a comparable string covering
// everything a caller observes: the decoded payload, the raw latency
// series, the error metrics and the timing.
func conformanceSnapshot(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bits=%s ber=%g tr=%g elapsed=%d sync=%v lat=", res.ReceivedBits, res.BER, res.TRKbps, res.Elapsed, res.SyncOK)
	for _, l := range res.Latencies {
		fmt.Fprintf(&b, "%d,", l)
	}
	return b.String()
}

// TestMechanismConformance is the cross-mechanism contract: every
// mechanism in Mechanisms() — extension family included — must transmit
// a quick payload at its default parameters with BER under the
// threshold, a positive measurement window, and byte-identical output
// whether transmissions run on one worker or eight, on fresh machines or
// on machines recycled through the pool.
func TestMechanismConformance(t *testing.T) {
	payload := codec.Random(sim.NewRNG(77), 1500)
	run := func(_ context.Context, m Mechanism) (string, error) {
		res, err := Run(Config{
			Mechanism: m,
			Scenario:  Local(),
			Payload:   payload,
			Seed:      17,
		})
		if err != nil {
			return "", fmt.Errorf("%v: %w", m, err)
		}
		if res.BER > conformanceBER {
			return "", fmt.Errorf("%v: BER %.3f%% above the %.0f%% conformance bar", m, res.BER*100, conformanceBER*100)
		}
		if res.Elapsed <= 0 {
			return "", fmt.Errorf("%v: Elapsed = %v, want > 0", m, res.Elapsed)
		}
		return conformanceSnapshot(res), nil
	}
	fresh := func(ctx context.Context, m Mechanism) (string, error) {
		drainSystems()
		return run(ctx, m)
	}

	var base []string
	for _, pooled := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			f := fresh
			if pooled {
				f = run
			}
			snaps, err := runner.Map(context.Background(), Mechanisms(), f, runner.Workers(workers))
			if err != nil {
				t.Fatalf("pooled=%v workers=%d: %v", pooled, workers, err)
			}
			if base == nil {
				base = snaps
				continue
			}
			for i, s := range snaps {
				if s != base[i] {
					t.Errorf("%v: output diverged with pooled=%v workers=%d", Mechanisms()[i], pooled, workers)
				}
			}
		}
	}
}

// drainSystems empties the machine pool, releasing every pooled machine,
// so the next trial builds a fresh one.
func drainSystems() {
	for {
		sys, ok := systems.Get()
		if !ok {
			return
		}
		sys.Release()
	}
}

// TestConformanceNoiselessAllScenarios: the protocol logic of every
// feasible (mechanism, scenario) pair must be exact with noise off —
// zero BER and a verified preamble.
func TestConformanceNoiselessAllScenarios(t *testing.T) {
	payload := codec.FromString("conform")
	for _, scn := range []Scenario{Local(), CrossSandbox(), CrossVM()} {
		for _, m := range Mechanisms() {
			if Feasible(m, scn) != nil {
				continue
			}
			res, err := Run(Config{
				Mechanism: m,
				Scenario:  scn,
				Payload:   payload,
				Seed:      5,
				Noiseless: true,
			})
			if err != nil {
				t.Errorf("%v/%v: %v", m, scn, err)
				continue
			}
			if res.BER != 0 || !res.SyncOK {
				t.Errorf("%v/%v: noiseless BER=%g syncOK=%v", m, scn, res.BER, res.SyncOK)
			}
		}
	}
}
