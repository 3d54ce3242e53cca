// Command bench is the repository's end-to-end benchmark. It drives the
// simulator through four closed-loop workloads using the public
// functions of core, experiments, detect and runner, times every call it
// makes into a layer from outside, prints every metric by name with its
// unit, and exits non-zero when an output check fails. See README.md for
// the workloads, the metrics and their bounds.
//
// Usage, from the repository root (bench/run.sh builds the binary under
// .bench_build/ and runs it with the same arguments):
//
//	go -C bench run . -seed 1                        # all workloads, both passes
//	go -C bench run . -workload steady-event -seconds 10 -trace 0
//	go -C bench run . -seed 1 -spans spans.jsonl     # also write the spans
//
// Each workload runs in rounds, each in a fresh child process; round r
// of every workload runs before round r+1 of any. The untraced pass
// (-trace 0) gives the end-to-end metrics; the traced pass (-trace 1)
// records spans around every other op and runs the per-layer
// microbenchmarks. The last line of standard output is one JSON object
// with every metric of the passes run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"time"
)

// rounds is how many rounds each workload runs per pass; a metric's value
// is the median over its rounds.
const rounds = 5

func main() {
	// The simulator is a batch workload with a few MB of steady-state
	// heap; this is the GC setting cmd/mesbench runs it at.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only     = fs.String("workload", "all", "workload to run: steady-event, mech-faults, traced-detect, registry-quick or all")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 25, "timed seconds per workload and pass, split over the rounds")
		trace    = fs.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
		spansOut = fs.String("spans", "", "write the traced pass's spans to this JSON-lines file (runs the traced pass)")
		round    = fs.String("round", "", "internal: run the one round this JSON spec describes and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *round != "" {
		return childMain(*round, stdout)
	}

	ws := workloads
	if *only != "all" {
		w, err := lookup(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ws = []*workload{w}
	}
	passes, ok := map[string][]bool{"0": {false}, "1": {true}, "both": {false, true}}[*trace]
	if !ok {
		fmt.Fprintf(os.Stderr, "-trace must be 0, 1 or both, not %q\n", *trace)
		return 2
	}
	if *spansOut != "" && !slices.Contains(passes, true) {
		passes = append(passes, true)
	}
	if *seconds < 0 {
		fmt.Fprintln(os.Stderr, "-seconds must not be negative")
		return 2
	}

	b := bench{seed: *seed, seconds: *seconds, rounds: rounds, sample: 4 * time.Millisecond, exec: execChild}
	rep, err := b.run(ws, passes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// childMain runs one round in this process and prints its result as one
// JSON line.
func childMain(specJSON string, stdout io.Writer) int {
	var spec roundSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bad round spec:", err)
		return 2
	}
	res, err := runRound(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s round %d: %v\n", spec.Workload, spec.Round, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// execChild runs one round in a fresh child process: the harness
// re-executes itself with -round and reads the result from its output.
func execChild(spec roundSpec) (roundResult, error) {
	self, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	spec.StartNs = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return roundResult{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-round", string(arg))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return roundResult{}, fmt.Errorf("round process: %w", err)
	}
	var res roundResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return roundResult{}, fmt.Errorf("round result: %w", err)
	}
	return res, nil
}

// bench is one benchmark run's settings.
type bench struct {
	seed    uint64
	seconds float64 // timed seconds per workload and pass
	rounds  int
	prefix  int           // overrides every workload's exact prefix when > 0
	sample  time.Duration // length of one microbenchmark sample
	exec    func(roundSpec) (roundResult, error)
}

// pass runs every round of one pass, interleaved: round r of every
// workload runs before round r+1 of any, so a noisy minute on a shared
// machine lands on all workloads alike.
func (b bench) pass(ws []*workload, traced bool) ([][]roundResult, error) {
	out := make([][]roundResult, len(ws))
	for r := 0; r < b.rounds; r++ {
		for i, w := range ws {
			res, err := b.exec(roundSpec{Workload: w.name, Seed: b.seed, Round: r,
				Seconds: b.seconds / float64(b.rounds), Trace: traced, Prefix: b.prefix})
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
			}
			out[i] = append(out[i], res)
		}
	}
	return out, nil
}

// run runs the requested passes and derives every metric.
func (b bench) run(ws []*workload, passes []bool) (*report, error) {
	rep := &report{seed: b.seed, seconds: b.seconds, rounds: b.rounds}
	for _, w := range ws {
		rep.results = append(rep.results, &result{w: w, prefix: w.prefixOr(b.prefix)})
	}
	for _, traced := range passes {
		rs, err := b.pass(ws, traced)
		if err != nil {
			return nil, err
		}
		for i, res := range rep.results {
			if traced {
				res.traced = rs[i]
			} else {
				res.untraced = rs[i]
			}
		}
	}
	for _, res := range rep.results {
		res.check()
		if res.untraced != nil {
			res.endToEnd()
		}
		if res.traced != nil {
			m, err := micro(res.w, b.seed, b.sample)
			if err != nil {
				res.problems = append(res.problems, fmt.Sprintf("%s microbenchmarks: %v", res.w.name, err))
			}
			res.perLayer(m)
		}
	}
	return rep, nil
}

// writeSpans writes every traced round's spans as JSON lines, each
// tagged with its workload and round.
func writeSpans(file string, rep *report) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	for _, res := range rep.results {
		for r, rr := range res.traced {
			for _, s := range rr.Spans {
				line := struct {
					Workload string `json:"workload"`
					Round    int    `json:"round"`
					span
				}{res.w.name, r, s}
				if err := enc.Encode(line); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := buf.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
