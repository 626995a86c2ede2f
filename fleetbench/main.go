// Command fleetbench is the repository benchmark: it drives a four-rank
// chipkill fleet (internal/fleet) over the whole stack from outside,
// through public functions only, and prints the end-to-end metrics of
// one workload — or, with --trace 1, the per-layer metrics — ending with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash fleetbench/run.sh --workload ycsb-drift --seed 1 --seconds 30 --trace 0
//	bash fleetbench/run.sh --steady 10 --sets 2 --seconds 30   # steadiness tables
//	bash fleetbench/run.sh --selftest                # harness self-test
//
// README.md in this directory describes the workloads, the inputs and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: ycsb-drift, hashmap-write or outage-repair")
		seed     = flag.Int64("seed", 1, "input seed (for --steady, the first of consecutive seeds)")
		sets     = flag.Int("sets", 1, "with --steady: sets of runs to make and compare, each on its own seeds")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
		steady   = flag.Int("steady", 0, "run every workload this many times, alternating, and print the spread of each end-to-end metric against its bound")
		selftest = flag.Bool("selftest", false, "show that the harness reports a corrupted shadow byte and a dropped write")
	)
	flag.Parse()
	switch {
	case *selftest:
		os.Exit(runSelfTest())
	case *steady > 0:
		os.Exit(runSteady(*steady, max(1, *sets), *seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, w.name, res); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints one line per metric, the run's notes, and the JSON
// result as the last line.
func printResult(f *os.File, name string, res *result) error {
	out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(f, "workload %s: %d ops attempted, %d failed, correct=%v\n", name, res.attempted, res.failed, res.correct)
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(f, "  %-36s not measurable (too few samples)\n", m.name)
			v = 0
		} else {
			fmt.Fprintf(f, "  %-36s %14.6g %s\n", m.name, v, m.unit)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(f, "  "+n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
