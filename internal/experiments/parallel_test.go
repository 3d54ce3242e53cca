package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestSweepsDeterministicAcrossWorkers is the runner's central contract at
// the experiments layer: the rendered artifact is byte-identical whether a
// sweep runs sequentially or fanned out across eight workers.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	seq := Options{Quick: true, Seed: 3, Workers: 1}
	par := Options{Quick: true, Seed: 3, Workers: 8}
	render := map[string]func(Options) (string, error){
		"fig9": func(o Options) (string, error) {
			pts, err := Fig9(o)
			if err != nil {
				return "", err
			}
			return RenderFig9(pts), nil
		},
		"fig10": func(o Options) (string, error) {
			pts, err := Fig10(o)
			if err != nil {
				return "", err
			}
			return RenderFig10(pts), nil
		},
		"table4": func(o Options) (string, error) {
			rows, err := Table4(o)
			if err != nil {
				return "", err
			}
			return RenderTable("Table IV: local scenario", rows), nil
		},
		"interference": func(o Options) (string, error) {
			rows, err := Interference(o)
			if err != nil {
				return "", err
			}
			return RenderInterference(rows), nil
		},
	}
	for name, run := range render {
		a, err := run(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		b, err := run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: workers=1 and workers=8 rendered different output", name)
		}
	}
}

// TestRegistryCachesSharedSweeps counts real sweep executions through the
// cache's compute hook: fig9a then fig9b must run the Fig. 9 sweep exactly
// once, and table2 then table3 must replay SemTables exactly once.
func TestRegistryCachesSharedSweeps(t *testing.T) {
	resetSweepCaches()
	counts := map[string]int{}
	sweeps.SetComputeHook(func(key string) { counts[key[:strings.Index(key, "-")]]++ })
	defer func() {
		sweeps.SetComputeHook(nil)
		resetSweepCaches()
	}()

	opt := Options{Quick: true, Seed: 11}
	var outputs []string
	for _, name := range []string{"fig9a", "fig9b", "table2", "table3"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outputs = append(outputs, out)
	}
	if counts["fig9"] != 1 {
		t.Errorf("fig9 sweep executed %d times across fig9a+fig9b, want exactly 1", counts["fig9"])
	}
	if counts["semtables"] != 1 {
		t.Errorf("SemTables executed %d times across table2+table3, want exactly 1", counts["semtables"])
	}
	if outputs[0] != outputs[1] {
		t.Error("fig9a and fig9b should render the same cached sweep")
	}
	if outputs[2] != outputs[3] {
		t.Error("table2 and table3 should render the same cached replay")
	}
	// A different seed is a different fingerprint: the sweep reruns.
	e, _ := Lookup("fig9a")
	if _, err := e.Run(Options{Quick: true, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	if counts["fig9"] != 2 {
		t.Errorf("fig9 computed %d times after a seed change, want 2", counts["fig9"])
	}
}

// engineCorners is the determinism cube the registry and fault-sweep
// tests compare: serial versus parallel sweeps, each rendered on a first
// pass and again on a second pass that runs on the sessions and machines
// the first pass returned to the pools. The first corner is the base the
// others must match byte for byte.
var engineCorners = []struct {
	workers int
	pass    string
}{{1, "first"}, {8, "first"}, {1, "second"}, {8, "second"}}

// TestRegistryDeterministicAcrossPoolingAndWorkers is the pooled-machine
// and trial-session contract at the registry level: the full registry
// renders byte-identical output in every corner of engineCorners. The
// sweep caches are reset between renderings so every configuration
// really recomputes.
func TestRegistryDeterministicAcrossPoolingAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	var base string
	for i, c := range engineCorners {
		resetSweepCaches()
		var b strings.Builder
		for _, e := range Registry() {
			out, err := e.Run(Options{Quick: true, Seed: 9, Workers: c.workers})
			if err != nil {
				t.Fatalf("%s (%s pass, workers=%d): %v", e.Name, c.pass, c.workers, err)
			}
			b.WriteString(e.Name)
			b.WriteByte('\n')
			b.WriteString(out)
		}
		got := b.String()
		if i == 0 {
			base = got
			// The registry sweep must include the crossmech extension
			// experiment — the determinism contract covers the full
			// mechanism family, not just the paper's six.
			if !strings.Contains(base, "crossmech") || !strings.Contains(base, "WriteSync*") {
				t.Error("registry rendering is missing the crossmech family sweep")
			}
			continue
		}
		if got != base {
			t.Errorf("registry output diverged on the %s pass with workers=%d", c.pass, c.workers)
		}
	}
}

// TestSweepCancellation aborts a sweep through Options.Ctx.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig9(Options{Quick: true, Seed: 3, Ctx: ctx, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9 under cancelled ctx: err = %v, want context.Canceled", err)
	}
}
