package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySet is one set of runs: every end-to-end value per workload and
// metric, the failed share of each run, and how many runs were incorrect.
type steadySet map[string]*steadyRuns

type steadyRuns struct {
	values      map[string][]float64
	failedShare map[float64]bool
	incorrect   int
}

// runSteady runs sets sets of n runs of every workload; set k uses seeds
// seed+k*n .. seed+(k+1)*n-1. Within a set the workloads alternate (and
// rotate which goes first) so slow drift of the host spreads over all of
// them, each run in its own process as the benchmark is normally run.
// For each set it prints, per workload and end-to-end metric, the
// median, the quartiles and the spread (Q3-Q1)/median next to the
// metric's bound from BENCHMARK.json; with two or more sets it also
// prints how far each later set's median moved from the first set's in
// the metric's worse direction. It exits non-zero when a spread or a
// move exceeds its bound, a run is incorrect, or the failed share of
// operations differs between runs.
func runSteady(n, sets int, seed int64, seconds int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: --steady runs from the repository root:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: parsing BENCHMARK.json:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	ok := true
	shares := map[string]map[float64]bool{}
	var all []steadySet
	for k := 0; k < sets; k++ {
		set := steadySet{}
		for _, w := range spec.Workloads {
			set[w.Name] = &steadyRuns{values: map[string][]float64{}, failedShare: map[float64]bool{}}
		}
		for i := 0; i < n; i++ {
			s := seed + int64(k*n+i)
			for j := range spec.Workloads {
				w := spec.Workloads[(i+j)%len(spec.Workloads)].Name
				res, err := runChild(exe, w, s, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "fleetbench: %s seed %d: %v\n", w, s, err)
					return 1
				}
				r := set[w]
				if !res.Correct {
					r.incorrect++
				}
				r.failedShare[float64(res.Failed)/float64(res.Attempted)] = true
				for name, m := range res.Metrics {
					r.values[name] = append(r.values[name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "  set %d: %s seed %d done\n", k+1, w, s)
			}
		}
		fmt.Printf("set %d: seeds %d..%d, %d s per run\n", k+1, seed+int64(k*n), seed+int64((k+1)*n-1), seconds)
		fmt.Printf("%-14s %-20s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, w := range spec.Workloads {
			r := set[w.Name]
			for _, m := range spec.EndToEnd {
				q := quartiles(r.values[m.Name])
				spread := (q[2] - q[0]) / q[1]
				verdict := ""
				if !(spread <= m.Bound) {
					verdict = "  WIDE"
					ok = false
				}
				fmt.Printf("%-14s %-20s %14.6g %14.6g %14.6g %8.4f %6.3f%s\n", w.Name, m.Name, q[1], q[0], q[2], spread, m.Bound, verdict)
			}
			if r.incorrect > 0 {
				fmt.Printf("%-14s %d incorrect runs\n", w.Name, r.incorrect)
				ok = false
			}
			if shares[w.Name] == nil {
				shares[w.Name] = map[float64]bool{}
			}
			for s := range r.failedShare {
				shares[w.Name][s] = true
			}
		}
		all = append(all, set)
	}
	for _, w := range spec.Workloads {
		if len(shares[w.Name]) != 1 {
			fmt.Printf("%-14s %d distinct failed shares across runs\n", w.Name, len(shares[w.Name]))
			ok = false
		}
	}
	for k := 1; k < len(all); k++ {
		fmt.Printf("set %d against set 1: change of the median in the worse direction\n", k+1)
		fmt.Printf("%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "median 1", fmt.Sprintf("median %d", k+1), "worse", "bound")
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				m1 := median(all[0][w.Name].values[m.Name])
				mk := median(all[k][w.Name].values[m.Name])
				worse := (mk - m1) / m1
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if !(worse <= m.Bound) {
					verdict = "  WORSE"
					ok = false
				}
				fmt.Printf("%-14s %-20s %14.6g %14.6g %8.4f %6.3f%s\n", w.Name, m.Name, m1, mk, worse, m.Bound, verdict)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one benchmark process and parses its last output line.
func runChild(exe, w string, seed int64, seconds int) (*jsonResult, error) {
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}
