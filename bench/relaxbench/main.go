// relaxbench is the end-to-end benchmark of the relaxd quorum service:
// whole three-step operations over loopback TCP and real fsyncs, from
// one closed-loop client, on four workloads, with a per-layer budget
// from a separate traced run. bench/README.md is the manual.
//
// Usage:
//
//	relaxbench [-seconds S] [-seed N] [-runs R] [-out F] [-spans F]   every workload, measured then traced
//	relaxbench -workload W -seed N -seconds S -trace 0|1              one run; the last line is its JSON result
//	relaxbench -compare a.json b.json                                 hold two -out files to BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxbench:", err)
		os.Exit(1)
	}
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Attempted counts operations sent (recovery: rejoin cycles);
	// Completed those that returned a response, NoResponse the Deqs
	// among them that found the queue empty, Refused the ones turned
	// away exactly as the quorum table predicts, Failed everything else.
	Attempted  int `json:"attempted"`
	Completed  int `json:"completed"`
	NoResponse int `json:"no_response"`
	Refused    int `json:"refused"`
	Failed     int `json:"failed"`
	// FailedFrac is (Refused+Failed)/Attempted: the share of what was
	// asked for that the service did not do.
	FailedFrac float64        `json:"failed_frac"`
	Failures   map[string]int `json:"failures,omitempty"`
	Problems   []string       `json:"problems,omitempty"`
	// TailPercentile is the highest percentile with at least ten
	// latency samples beyond it (0 when there is none) and TailMS its
	// value.
	TailPercentile float64 `json:"tail_percentile"`
	TailMS         float64 `json:"tail_ms"`
	// AttributedShare is the part of acknowledged operations' time the
	// five client stages of the traced half account for.
	AttributedShare float64   `json:"attributed_share,omitempty"`
	WallS           float64   `json:"wall_s"`
	MeasuredS       float64   `json:"measured_s"`
	Metrics         metricSet `json:"metrics"`

	tracer *opTracer
}

// environment describes where a result file was measured.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Runs   []*result   `json:"runs"`
}

const schema = "relaxbench/1"

// commit is the revision the binary was built from, as the go tool
// stamped it; "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("relaxbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and print its JSON result as the last line")
	seed := fs.Int64("seed", 1987, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long each run measures")
	traceFlag := fs.Int("trace", 0, "with -workload: 0 measures with the plain client, 1 alternates plain and traced units and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: measured runs per workload, on seeds seed..seed+runs-1")
	out := fs.String("out", "", "write every run as JSON to this file")
	spansPath := fs.String("spans", "", "write the traced runs' spans as JSONL (cmd/relaxtrace loads it)")
	workdir := fs.String("workdir", ".bench_work", "directory the services' stores live under; created, and emptied again at exit")
	smoke := fs.Bool("smoke", false, "tiny workload sizes: a quick functional check, not a measurement")
	compare := fs.Bool("compare", false, "compare two -out files: relaxbench -compare a.json b.json")
	benchJSON := fs.String("benchmark-json", "BENCHMARK.json", "with -compare: where the bounds come from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, *benchJSON, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this machine: the sites share the process, an oversubscribed run measures the scheduler", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	workRoot, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(workRoot)
		os.Remove(*workdir) // only succeeds once no other run is using it
	}()

	file := resultFile{Schema: schema, Env: environment{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seconds: *seconds, Smoke: *smoke,
	}}
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		if *traceFlag != 0 && *traceFlag != 1 {
			return fmt.Errorf("-trace is 0 or 1")
		}
		res, err := runWorkload(def, *seed, *seconds, *traceFlag == 1, sz, workRoot)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, res)
		printResult(stdout, res)
		if err := writeOutputs(&file, *out, *spansPath); err != nil {
			return err
		}
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		line, err := json.Marshal(protocolLine(res, defs))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return verdict(file.Runs)
	}

	for _, def := range workloads {
		for i := 0; i <= *runs; i++ {
			// The measured runs first, then one traced run on the base seed.
			traced := i == *runs
			s := *seed + int64(i)
			if traced {
				s = *seed
			}
			res, err := runWorkload(def, s, *seconds, traced, sz, workRoot)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			printResult(stdout, res)
		}
	}
	if err := writeOutputs(&file, *out, *spansPath); err != nil {
		return err
	}
	return verdict(file.Runs)
}

// verdict turns any incorrect run into a non-zero exit.
func verdict(runs []*result) error {
	bad := 0
	for _, r := range runs {
		if !r.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d run(s) failed the correctness gate", bad, len(runs))
	}
	return nil
}

// runWorkload executes one run and derives its metrics.
func runWorkload(def workloadDef, seed int64, seconds float64, traced bool, sz sizes, workRoot string) (*result, error) {
	r := &run{workload: def.Name, seed: seed, seconds: seconds, sz: sz, workRoot: workRoot, layer: metricSet{}}
	if traced {
		r.tracer = newOpTracer("relaxbench/" + def.Name)
	}
	started := time.Now()
	if err := def.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	res := &result{
		Workload: def.Name, Seed: seed, Traced: traced, tracer: r.tracer,
		Attempted:  r.plain.attempted + r.traced.attempted,
		Completed:  r.plain.completed + r.traced.completed,
		NoResponse: r.plain.noResponse + r.traced.noResponse,
		Refused:    r.plain.refused + r.traced.refused,
		Failed:     r.plain.failed + r.traced.failed,
		Failures:   map[string]int{},
		MeasuredS:  (r.plain.wall + r.traced.wall).Seconds(),
		Metrics:    r.layer,
	}
	for _, st := range []*opStats{&r.plain, &r.traced} {
		for k, v := range st.failures {
			res.Failures[k] += v
		}
	}
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Refused+res.Failed) / float64(res.Attempted)
	}
	if res.Failed > 0 {
		r.problem("%s: %d of %d operations failed: %v", def.Name, res.Failed, res.Attempted, res.Failures)
	}
	if res.Completed == 0 {
		r.problem("%s: no operation completed", def.Name)
	}

	m := res.Metrics
	m.set("setup_s", r.setup.median(), len(r.setup))
	m.set("ops_per_s", r.plain.opsPerSec(), r.plain.completed)
	m.p50("op_p50_ms", r.plain.lat)
	m.set("op_p95_ms", r.plain.lat.percentile(95), len(r.plain.lat))
	if p, ok := supportedTail(len(r.plain.lat)); ok {
		res.TailPercentile, res.TailMS = p, r.plain.lat.percentile(p)
	}
	if traced {
		r.tracer.metrics(m)
		res.AttributedShare = r.tracer.attributedShare()
		if kops := float64(r.plain.completed) / 1000; kops > 0 {
			m.set("proc.cpu_s_per_kop", r.plain.cpu.Seconds()/kops, r.plain.completed)
			m.set("proc.alloc_kb_per_op", float64(r.plain.allocBytes)/1024/float64(r.plain.completed), r.plain.completed)
		}
		m.set("proc.gc_pause_ms", float64(r.plain.gcPause)/nsPerMS, 0)
		m.set("proc.peak_rss_mb", peakRSSMB(), 0)
		if base := r.plain.opsPerSec(); base > 0 {
			m.set("trace.overhead_frac", 1-r.traced.opsPerSec()/base, 0)
		}
		if err := layerReplay(m, r.lastLog, r.sites, workRoot); err != nil {
			r.problem("%s: %v", def.Name, err)
		}
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// protocolResult is the one JSON object a -workload run ends with.
type protocolResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]protocolValue `json:"metrics"`
}

type protocolValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// protocolLine keeps exactly the metrics of defs; one the workload did
// not exercise reads 0.
func protocolLine(res *result, defs []metricDef) protocolResult {
	p := protocolResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]protocolValue{}}
	for _, d := range defs {
		p.Metrics[d.Name] = protocolValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return p
}

// printResult prints every metric of a run by name, with its unit.
func printResult(w io.Writer, res *result) {
	kind := "measured"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d completed=%d no_response=%d refused=%d failed=%d failed_frac=%.4f measured=%.2fs wall=%.2fs\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Completed, res.NoResponse, res.Refused, res.Failed,
		res.FailedFrac, res.MeasuredS, res.WallS)
	if res.TailPercentile > 0 {
		fmt.Fprintf(w, "   op latency tail: p%g = %.4f ms (the highest percentile with at least 10 samples beyond it)\n", res.TailPercentile, res.TailMS)
	}
	if res.Traced {
		fmt.Fprintf(w, "   client stages account for %.1f%% of acknowledged operations' time\n", 100*res.AttributedShare)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	// End-to-end first, then the layers in name order.
	for _, d := range endToEnd {
		printMetric(w, d.Name, res.Metrics[d.Name])
	}
	for _, name := range names {
		if !isEndToEnd(name) {
			printMetric(w, name, res.Metrics[name])
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   FAIL: %s\n", p)
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

func printMetric(w io.Writer, name string, v metricValue) {
	if v.N > 0 {
		fmt.Fprintf(w, "   %-34s %14.4f %-10s n=%d\n", name, v.Value, v.Unit, v.N)
		return
	}
	fmt.Fprintf(w, "   %-34s %14.4f %s\n", name, v.Value, v.Unit)
}

// writeOutputs writes the result file and the span stream when asked.
func writeOutputs(file *resultFile, out, spansPath string) error {
	if out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if spansPath == "" {
		return nil
	}
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	for _, res := range file.Runs {
		if res.tracer == nil {
			continue
		}
		if err := res.tracer.writeSpans(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
