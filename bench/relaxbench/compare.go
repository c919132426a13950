package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one end-to-end metric of one workload over a file's
// measured (untraced) runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func medianOf(values []float64) float64 {
	if len(values) == 1 {
		return values[0]
	}
	_, q2, _ := quartiles(values)
	return q2
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares B against A for one metric. The run-to-run spread of
// A (interquartile distance over median) wider than the bound makes
// the row unresolved, unless every run of B reads better than every
// run of A; otherwise B's median worse than A's by more than the bound
// is a regression.
func judge(a, b []float64, better string, bound float64) (verdict string, change, spreadA float64) {
	ma, mb := medianOf(a), medianOf(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	spreadA = spread(a)
	if spreadA > bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved, change, spreadA
		}
	}
	if worse > bound {
		return verdictRegressed, change, spreadA
	}
	return verdictOK, change, spreadA
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails when any row is regressed or unresolved, or a run of either
// file was incorrect.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%s, %d runs)  B: %s (%s, %d runs)\n", pathA, a.Env.Commit, len(a.Runs), pathB, b.Env.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-10s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "change", "spread A", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-10s missing from a file\n", wl.Name, m.Name)
				bad++
				continue
			}
			verdict, change, spreadA := judge(va, vb, m.Better, m.Bound)
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-10s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, medianOf(va), medianOf(vb), 100*change, 100*spreadA, 100*m.Bound, verdict)
		}
	}
	for _, f := range []*resultFile{&a, &b} {
		for _, r := range f.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d: %v\n", r.Workload, r.Seed, r.Problems)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) regressed, unresolved, missing or incorrect", bad)
	}
	return nil
}
