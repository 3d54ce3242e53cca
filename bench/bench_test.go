package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// inProcess runs a round in the test's own process instead of a child.
func inProcess(spec roundSpec) (roundResult, error) {
	spec.StartNs = time.Now().UnixNano()
	return runRound(spec)
}

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryDeclaredMetricIsEmitted runs both passes of every workload for
// a few ops per round and checks that the checks pass and that the last
// output line reports each metric BENCHMARK.json declares, with its unit.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	d := readDeclared(t)
	prefix := 3
	if !testing.Short() {
		prefix = 0 // the workloads' own prefixes
	}
	for _, seed := range []uint64{1, 2} {
		b := bench{seed: seed, rounds: 2, prefix: prefix, sample: 200 * time.Microsecond, exec: inProcess}
		rep, err := b.run(workloads, []bool{false, true})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("seed %d: checks failed:\n%s", seed, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("seed %d: last line is not the JSON summary: %v", seed, err)
		}
		if !sum.Correct || sum.Attempted < 1 {
			t.Errorf("seed %d: summary reports correct=%v attempted=%d", seed, sum.Correct, sum.Attempted)
		}
		for _, w := range workloads {
			for _, m := range append(d.EndToEnd, d.PerLayer...) {
				got, ok := sum.Metrics[w.name+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("seed %d: %s: metric %s emitted=%v with unit %q, want unit %q", seed, w.name, m.Name, ok, got.Unit, m.Unit)
				}
			}
		}
		if want := len(workloads) * (len(d.EndToEnd) + len(d.PerLayer)); len(sum.Metrics) != want {
			t.Errorf("seed %d: %d metrics emitted, BENCHMARK.json declares %d", seed, len(sum.Metrics), want)
		}
	}
}

// TestSeedsGenerateDifferentPayloads checks that the seed reaches the
// workloads' inputs.
func TestSeedsGenerateDifferentPayloads(t *testing.T) {
	for _, w := range workloads {
		p1, p2 := w.probe(1).Payload, w.probe(2).Payload
		if p1.Equal(p2) {
			t.Errorf("%s: seeds 1 and 2 generate the same payload", w.name)
		}
		if p1.Ones() != len(p1)/2 {
			t.Errorf("%s: payload has %d ones in %d bits, want half", w.name, p1.Ones(), len(p1))
		}
	}
}
