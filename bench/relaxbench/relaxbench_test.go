package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

func render(g *generator, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.next().String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, b := render(newGenerator(7), 2000), render(newGenerator(7), 2000)
	if a != b {
		t.Fatal("two generators on one seed produced different streams")
	}
	if a == render(newGenerator(8), 2000) {
		t.Fatal("seeds 7 and 8 produced the same stream")
	}
	if deq := strings.Count(a, "Deq"); deq != 2000*deqPerBlock/mixBlock {
		t.Fatalf("%d Deq in 2000 invocations, want exactly %d", deq, 2000*deqPerBlock/mixBlock)
	}
}

func TestPreloadHistoryIsValid(t *testing.T) {
	entries := preloadMixed(11, 1500, 4)
	again := preloadMixed(11, 1500, 4)
	if fmt.Sprint(entries) != fmt.Sprint(again) {
		t.Fatal("preload is not deterministic per seed")
	}
	log := quorum.LogOf(entries...)
	if log.Len() != 1500 {
		t.Fatalf("preload has %d distinct timestamps, want 1500", log.Len())
	}
	if states := quorum.PQFold().EvalLog(log); len(states) == 0 {
		t.Fatal("PQFold cannot interpret the preload history")
	}
	lat := core.TaxiSimpleLattice()
	if v := relaxcheck.Certify(lat, nil, "Q1Q2", log.History()); v != nil {
		t.Fatalf("preload does not certify at Q1Q2: %v", v)
	}
	deqs := log.History().Count(history.NameDeq)
	if deqs == 0 || deqs == 1500 {
		t.Fatalf("preload has %d Deq of 1500 entries, want a mix", deqs)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{7, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := supportedTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := s.median(); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50 (nearest rank)", got)
	}
	if got := s.percentile(95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := (samples{3, 1, 2}).percentile(95); got != 3 {
		t.Errorf("p95 of three samples = %v, want the maximum", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// localService is a service over ephemeral replicas with no sockets:
// enough of one for the decorators, which is all the caller uses.
func localService(t *testing.T, preload []quorum.Entry) (*service, *relaxd.Local) {
	t.Helper()
	replicas, err := relaxd.OpenSites("", 3, relaxd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replicas {
		if err := shipPreload(r, preload); err != nil {
			t.Fatal(err)
		}
	}
	lat := core.TaxiSimpleLattice()
	s := &service{
		cfg: serviceConfig{sites: 3, rung: "Q1Q2", preload: preload}, lat: lat, replicas: replicas, nextClock: 5,
		checker: relaxcheck.New(lat, relaxcheck.Options{Claims: nominalClaims(lat.Universe)}),
	}
	for _, e := range preload {
		s.checker.ObserveOp(e.Op)
	}
	s.checker.ObserveClaim(-1, "Q1Q2")
	return s, relaxd.NewLocal(replicas)
}

func TestDecoratorSelfTimesSumToExecuteTotal(t *testing.T) {
	s, local := localService(t, preloadMixed(3, 400, 4))
	tr := newOpTracer("test")
	tc := s.newTracedClient(tr, local)
	g := newGenerator(3)
	for i := 0; i < 300; i++ {
		if _, err := tc.execute(g.next(), baseGate(3), ""); err != nil && outcomeOf(err) != outcomeNoResponse {
			t.Fatal(err)
		}
	}
	var marked, total int64
	acked := 0
	for i := range tr.ops {
		o := &tr.ops[i]
		st, ok := o.selfTimes()
		if outcomes[o.outcome] != outcomeOK {
			continue
		}
		if !ok {
			t.Fatalf("acknowledged %s has incomplete marks: %+v", o.opName(), o)
		}
		acked++
		for name, v := range map[string]int64{"step1": st.step1, "view": st.view, "respond": st.respond,
			"step3_prep": st.step3Prep, "step3": st.step3, "audit": st.audit, "unattributed": st.unattributed} {
			if v < 0 {
				t.Fatalf("%s self time is negative (%d ns): marks out of order in %+v", name, v, o)
			}
		}
		marked += st.total - st.unattributed
		total += st.total
	}
	if acked < 100 {
		t.Fatalf("only %d acknowledged operations", acked)
	}
	if share := float64(marked) / float64(total); share < 0.95 {
		t.Fatalf("decorator self times cover %.1f%% of Execute's total, want at least 95%%", 100*share)
	}
	if n := len(tr.ops[0].roundTrips()); n != 6 {
		t.Fatalf("first operation made %d round trips, want 6 (3 GetLog, 3 Append)", n)
	}
}

func TestGateTripsOnPlantedFault(t *testing.T) {
	open := func() *service {
		s, err := openService(t.TempDir(), serviceConfig{sites: 3, rung: "Q1Q2", audit: true, preload: preloadMixed(5, 60, 4)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.close)
		var st opStats
		s.runOps(plainClient{s.client}, newGenerator(5), 40, baseGate(3), "", &st)
		if st.failed != 0 || len(s.acked) < 20 {
			t.Fatalf("warm-up: %d failed, %d acknowledged", st.failed, len(s.acked))
		}
		return s
	}
	if _, err := open().gate(); err != nil {
		t.Fatalf("intact run fails the gate: %v", err)
	}
	// An acknowledged operation missing from the observed list: the
	// recovered logs hold an entry nobody was told about.
	s := open()
	s.acked = append(s.acked[:7:7], s.acked[8:]...)
	if _, err := s.gate(); err == nil {
		t.Fatal("gate accepted recovered logs with an entry missing from the acknowledged list")
	}
	// An acknowledged operation missing from every recovered log.
	s = open()
	s.acked = append(s.acked, history.Enq(3))
	if _, err := s.gate(); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("gate did not report the lost acknowledged operation: %v", err)
	}
}

func TestAvailabilityTableFiveSites(t *testing.T) {
	// Sites needed per rung, max(Initial, Final) of the taxi assignments
	// over 5 sites; an operation is served with k sites down iff
	// 5-k is at least that.
	golden := map[string]map[string]int{
		"Q1Q2": {history.NameEnq: 3, history.NameDeq: 3},
		"Q1":   {history.NameEnq: 4, history.NameDeq: 2},
		"Q2":   {history.NameEnq: 1, history.NameDeq: 3},
		"none": {history.NameEnq: 1, history.NameDeq: 1},
	}
	assignments := quorum.TaxiAssignments(5)
	for _, rung := range rungs {
		for down := 0; down <= maxDown; down++ {
			alive := make([]bool, 5)
			for i := 0; i < 5-down; i++ {
				alive[i] = true
			}
			for op, need := range golden[rung] {
				if got, want := assignments[rung].HasQuorum(op, alive), 5-down >= need; got != want {
					t.Errorf("rung %s, %d down, %s: HasQuorum = %v, golden table says %v", rung, down, op, got, want)
				}
			}
		}
	}
}

// smokeRun runs one workload at smoke sizes.
func smokeRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	def, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(def, 42, 0.2, traced, smokeSizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: %v", name, res.Problems)
	}
	return res
}

func TestWorkloadsSmoke(t *testing.T) {
	// The metrics each workload must actually measure in a traced run;
	// the rest of the per-layer table belongs to other workloads.
	ops := []string{"client.step1_ms_p50", "client.view_ms_p50", "client.step3_ms_p50", "client.enq_p50_ms",
		"transport.roundtrips_per_op", "transport.req_bytes_per_op", "relaxcheck.observe_us_p50", "proc.cpu_s_per_kop"}
	replay := []string{"wire.encode_ns_per_entry", "replica.getlog_us_p50", "replica.append_us_p50", "store.fsync_us_p50",
		"store.snapshot_ms_p50", "store.open_ms_p50", "quorum.merge_us_p50", "quorum.fold_ns_per_entry", "relaxcheck.certify_ms"}
	must := map[string][]string{
		"short-history": ops,
		"long-history":  ops,
		"ladder-faults": append([]string{"ladder.Q1.op_p50_ms", "ladder.none.ok_frac", "ladder.down3.op_p50_ms"}, ops...),
		"recovery": {"replica.restart_ms_p50", "ship.fetch_ms_p50", "ship.certify_ms_p50", "ship.install_ms_p50",
			"ship.suffix_ms_p50", "ship.entries_shipped"},
	}
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			plain := smokeRun(t, def.Name, false)
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("measured run: %s = %v, want a positive number", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			traced := smokeRun(t, def.Name, true)
			for _, name := range append(append([]string{}, must[def.Name]...), replay...) {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("traced run: %s = %v, want a positive number", name, traced.Metrics[name].Value)
				}
			}
			line := protocolLine(traced, perLayer)
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, the table %d", len(line.Metrics), len(perLayer))
			}
			if def.Name == "ladder-faults" {
				// 0..3 of 5 sites down, 9 Deq in every 20 operations: Q1Q2
				// serves 3 phases of 4; Q1 everything in two and only the
				// Deqs in two; Q2 everything in three and only the Enqs in
				// the last; none everything. The same on every seed.
				for rung, want := range map[string]float64{"Q1Q2": 0.75, "Q1": (2 + 2*0.45) / 4, "Q2": (3 + 0.55) / 4, "none": 1} {
					if got := traced.Metrics["ladder."+rung+".ok_frac"].Value; math.Abs(got-want) > 1e-9 {
						t.Errorf("ladder.%s.ok_frac = %v, want %v", rung, got, want)
					}
				}
				if traced.Refused == 0 || traced.Failed != 0 {
					t.Errorf("refused=%d failed=%d, want refusals and no failure", traced.Refused, traced.Failed)
				}
			}
			if def.Name != "recovery" {
				if share := traced.AttributedShare; share < 0.5 || share > 1 {
					t.Errorf("client stages cover %.2f of operation time", share)
				}
				var buf bytes.Buffer
				if err := traced.tracer.writeSpans(&buf); err != nil {
					t.Fatal(err)
				}
				spans, err := trace.ReadJSONL(&buf)
				if err != nil {
					t.Fatalf("span stream does not load: %v", err)
				}
				an := trace.Analyze(spans)
				if an.Orphans != 0 || an.Roots == 0 || an.Spans != len(spans) {
					t.Errorf("span analysis: %d spans, %d roots, %d orphans", an.Spans, an.Roots, an.Orphans)
				}
			}
		})
	}
}

// Span IDs derive from the tracer's track name: two runs written to one
// file must not share one, or relaxtrace hangs one run's stages under
// the other's operations and the operations' self time balloons.
func TestSpanStreamOfSeveralRuns(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"short-history", "long-history"} {
		if err := smokeRun(t, name, true).tracer.writeSpans(&buf); err != nil {
			t.Fatal(err)
		}
	}
	spans, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	an := trace.Analyze(spans)
	if an.Orphans != 0 {
		t.Fatalf("%d orphan spans", an.Orphans)
	}
	for _, st := range an.ByName {
		if st.Name == "bench.op" && float64(st.Self) > 0.3*float64(st.Total) {
			t.Fatalf("bench.op self time is %d of %d ns: its stages are attached elsewhere", st.Self, st.Total)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec struct {
		benchmarkSpec
		Command []string `json:"command"`
		Paths   []string `json:"paths"`
		Wl      []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		PerLayer []metricDef `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Wl) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Wl), len(workloads))
	}
	for i, w := range workloads {
		if spec.Wl[i].Name != w.Name || spec.Wl[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Wl[i].Name, spec.Wl[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, got.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"slower within bound", steady, shift(steady, 1.08), "lower", verdictOK},
		{"slower beyond bound", steady, shift(steady, 1.2), "lower", verdictRegressed},
		{"throughput drop", steady, shift(steady, 0.8), "higher", verdictRegressed},
		{"throughput gain", steady, shift(steady, 1.5), "higher", verdictOK},
		{"noisy baseline", noisy, noisy, "lower", verdictUnresolved},
		{"noisy baseline, every run better", noisy, shift(steady, 0.3), "lower", verdictOK},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRefusesOversubscribedRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	err := mainErr([]string{"-smoke", "-workload", "short-history", "-workdir", t.TempDir()}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("run with GOMAXPROCS above the CPU count was not refused: %v", err)
	}
}

func TestSingleRunEndsWithResultLine(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	args := []string{"--workload", "short-history", "--seed", "9", "--seconds", "0.2", "--trace", "0",
		"-smoke", "-workdir", filepath.Join(dir, "work"), "-out", filepath.Join(dir, "a.json")}
	if err := mainErr(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", line)
	}
	var metrics map[string]protocolValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	if _, err := os.Stat(filepath.Join(dir, "work")); !os.IsNotExist(err) {
		t.Errorf("work directory left behind: %v", err)
	}
	// The file -out wrote compares clean against itself.
	var cmp bytes.Buffer
	args = []string{"-compare", "-benchmark-json", filepath.Join("..", "..", "BENCHMARK.json"),
		filepath.Join(dir, "a.json"), filepath.Join(dir, "a.json")}
	if err := mainErr(args, &cmp); err == nil || !strings.Contains(cmp.String(), "missing") {
		t.Errorf("comparing a one-workload file reported no missing rows: %v\n%s", err, cmp.String())
	}
	if !strings.Contains(cmp.String(), "short-history  setup_s") || !strings.Contains(cmp.String(), " ok") {
		t.Errorf("compare output lacks the short-history rows:\n%s", cmp.String())
	}
}
