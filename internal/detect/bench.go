package detect

import (
	"fmt"

	"mes/internal/sim"
)

// BenchTrace builds a deterministic trace shaped like a covert channel's
// observable activity — metronomic flock pairs on a handful of resources
// with background kill/setevent noise — without running a simulation. It
// is the standard workload behind BenchmarkDetectAnalyze and bench/'s
// detect rows.
func BenchTrace(n int) []sim.Entry {
	entries := make([]sim.Entry, 0, n)
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		res := i % 4
		// Bimodal spacing: the '0' and '1' times of a timing protocol.
		if i%2 == 0 {
			t = t.Add(40 * sim.Microsecond)
		} else {
			t = t.Add(160 * sim.Microsecond)
		}
		switch i % 8 {
		case 6:
			entries = append(entries, sim.MakeEntry(t, 1, "trojan", "kill", fmt.Sprintf("sig=7 target=spy%d", res)))
		case 7:
			entries = append(entries, sim.MakeEntry(t, 1, "trojan", "setevent", fmt.Sprintf("mes_ev_%d", res)))
		default:
			kind := "EX"
			if i%2 == 1 {
				kind = "UN"
			}
			entries = append(entries, sim.MakeEntry(t, 2, "spy", "flock", fmt.Sprintf("%s /share/f%d.txt", kind, res)))
		}
	}
	return entries
}
