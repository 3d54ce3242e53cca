package experiments

import (
	"fmt"

	"mes/internal/core"
	"mes/internal/report"
	"mes/internal/timing"
)

// TableRow is one mechanism's measured performance next to the paper's
// reported value (Tables IV, V, VI).
type TableRow struct {
	Mechanism core.Mechanism
	Timeset   string
	BERPct    float64
	TRKbps    float64
	PaperBER  float64
	PaperTR   float64
}

// paper-reported values for the three scenario tables.
var paperTable = map[timing.Isolation]map[core.Mechanism][2]float64{ // {BER%, TR}
	timing.Local: {
		core.Flock:      {0.615, 7.182},
		core.FileLockEX: {0.758, 7.678},
		core.Mutex:      {0.759, 7.612},
		core.Semaphore:  {0.741, 4.498},
		core.Event:      {0.554, 13.105},
		core.Timer:      {0.600, 11.683},
	},
	timing.Sandbox: {
		core.Flock:      {0.642, 6.946},
		core.FileLockEX: {0.700, 7.181},
		core.Mutex:      {0.701, 7.109},
		core.Semaphore:  {0.731, 4.338},
		core.Event:      {0.583, 12.383},
		core.Timer:      {0.610, 10.458},
	},
	timing.VM: {
		core.Flock:      {0.832, 5.893},
		core.FileLockEX: {0.713, 6.552},
	},
}

// PaperValues exposes the paper's reported Table IV–VI numbers for one
// scenario and mechanism.
func PaperValues(iso timing.Isolation, m core.Mechanism) (berPct, trKbps float64, ok bool) {
	v, ok := paperTable[iso][m]
	return v[0], v[1], ok
}

// scenarioTable runs all feasible paper mechanisms in one scenario: the
// grid is one trial per mechanism, each an independent transmission. The
// reproduction tables stay scoped to the paper's six; the full family —
// extension mechanisms included — is swept by the crossmech experiment.
func scenarioTable(opt Options, scn core.Scenario) ([]TableRow, error) {
	payload := opt.payload(opt.bits())
	var mechs []core.Mechanism
	for _, m := range core.PaperMechanisms() {
		if core.Feasible(m, scn) == nil {
			mechs = append(mechs, m)
		}
	}
	return runTrials(opt, mechs,
		func(m core.Mechanism) core.Config {
			return core.Config{
				Mechanism: m,
				Scenario:  scn,
				Payload:   payload,
				Seed:      opt.seed(),
			}
		},
		func(m core.Mechanism, res *core.Result, err error) (TableRow, error) {
			if err != nil {
				return TableRow{}, fmt.Errorf("%v/%v: %w", m, scn, err)
			}
			paper := paperTable[scn.Isolation][m]
			return TableRow{
				Mechanism: m,
				Timeset:   res.Params.String(),
				BERPct:    res.BER * 100,
				TRKbps:    res.TRKbps,
				PaperBER:  paper[0],
				PaperTR:   paper[1],
			}, nil
		})
}

// Table4 reproduces the local-scenario performance table.
func Table4(opt Options) ([]TableRow, error) { return scenarioTable(opt, core.Local()) }

// Table5 reproduces the cross-sandbox performance table.
func Table5(opt Options) ([]TableRow, error) { return scenarioTable(opt, core.CrossSandbox()) }

// Table6 reproduces the cross-VM performance table (only the file-backed
// channels are feasible; the others are reported by TableVI as infeasible
// via core.Feasible).
func Table6(opt Options) ([]TableRow, error) { return scenarioTable(opt, core.CrossVM()) }

// RenderTable renders measured-vs-paper rows.
func RenderTable(title string, rows []TableRow) string {
	tb := report.NewTable(title,
		"Mechanism", "Timeset", "BER(%)", "paper", "TR(kb/s)", "paper")
	for _, r := range rows {
		tb.AddRow(r.Mechanism.String(), r.Timeset, r.BERPct, r.PaperBER, r.TRKbps, r.PaperTR)
	}
	return tb.String()
}

// Table6Infeasible lists the paper's cross-VM negative results with
// reasons (paper §V.C.3: only FileLockEX-style channels survive).
func Table6Infeasible() []string {
	var out []string
	for _, m := range core.PaperMechanisms() {
		if err := core.Feasible(m, core.CrossVM()); err != nil {
			out = append(out, err.Error())
		}
	}
	return out
}
