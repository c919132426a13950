package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/obs"
)

// fastConfig keeps experiment tests quick; the full configuration runs
// from cmd/relaxctl and the benchmarks.
func fastConfig() Config {
	return Config{
		Seed:   1987,
		Bound:  core.Bound{MaxElem: 2, MaxLen: 5},
		Trials: 20000,
		Sites:  5,
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
		"E09", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "X01", "X02", "X03", "X04", "X05", "X06", "X07"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Errorf("%s incomplete", id)
		}
	}
	if _, ok := Find("E04"); !ok {
		t.Errorf("Find(E04) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Errorf("Find(nope) succeeded")
	}
}

// Each experiment runs without error and declares every checked claim
// to hold.
func TestAllExperimentsHold(t *testing.T) {
	cfg := fastConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if strings.Contains(out, "FAILS") {
				t.Errorf("%s reported a failing claim:\n%s", e.ID, out)
			}
			if len(out) < 40 {
				t.Errorf("%s output suspiciously short: %q", e.ID, out)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	cfg := fastConfig()
	// Trim the heavyweight settings further for the full sweep.
	cfg.Trials = 5000
	cfg.Bound.MaxLen = 4
	var buf bytes.Buffer
	if err := Run(&buf, cfg, All(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	for _, id := range []string{"E01", "E08", "E16"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("missing header for %s", id)
		}
	}
}

// The runner's output at 4 workers must be byte-identical to its
// serial schedule (1 worker), and stable across repeated runs.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 5000
	cfg.Bound.MaxLen = 4
	var serial bytes.Buffer
	if err := Run(&serial, cfg, All(), 1); err != nil {
		t.Fatalf("Run (1 worker): %v", err)
	}
	for run := 0; run < 2; run++ {
		var par bytes.Buffer
		if err := Run(&par, cfg, All(), 4); err != nil {
			t.Fatalf("Run (4 workers, run %d): %v", run, err)
		}
		if par.String() != serial.String() {
			t.Fatalf("parallel output differs from serial (run %d)", run)
		}
	}
}

// The observability sinks must obey the same contract as the output
// stream: the metrics snapshot and the event journal are byte-identical
// at any worker count, because scratch sinks are absorbed strictly in
// list order.
func TestObservabilityDeterministicAcrossWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 5000
	cfg.Bound.MaxLen = 4

	render := func(workers int) (string, string) {
		t.Helper()
		c := cfg
		c.Metrics = obs.NewRegistry()
		c.Trace = obs.NewRecorder()
		var out bytes.Buffer
		if err := Run(&out, c, All(), workers); err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		var m, j bytes.Buffer
		if err := c.Metrics.Snapshot().WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := c.Trace.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		return m.String(), j.String()
	}

	serialM, serialJ := render(1)
	if serialM == "" || serialJ == "" {
		t.Fatal("serial run produced empty observability output")
	}
	if !strings.Contains(serialJ, `"name":"experiment","id":"E01"`) {
		t.Errorf("journal missing experiment markers:\n%.200s", serialJ)
	}
	for _, workers := range []int{2, 8} {
		m, j := render(workers)
		if m != serialM {
			t.Errorf("metrics snapshot differs at workers=%d", workers)
		}
		if j != serialJ {
			t.Errorf("event journal differs at workers=%d", workers)
		}
	}
}

// A failing experiment must surface its ID, its partial output, and
// nothing from later experiments — identically at 1 and 4 workers.
func TestRunListErrorPath(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "T01", Title: "fine", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "first output")
			return nil
		}},
		{ID: "T02", Title: "broken", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "partial output")
			return boom
		}},
		{ID: "T03", Title: "unreached", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "hidden output")
			return nil
		}},
	}
	var serial bytes.Buffer
	errSerial := Run(&serial, Config{}, exps, 1)
	var par bytes.Buffer
	errPar := Run(&par, Config{}, exps, 4)
	for name, err := range map[string]error{"serial": errSerial, "parallel": errPar} {
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: error %v does not wrap the cause", name, err)
		}
		if !strings.Contains(err.Error(), "T02") {
			t.Errorf("%s: error %v does not name the failing experiment", name, err)
		}
	}
	if par.String() != serial.String() {
		t.Errorf("error output differs:\nserial: %q\nparallel: %q", serial.String(), par.String())
	}
	out := serial.String()
	if !strings.Contains(out, "partial output") {
		t.Errorf("failing experiment's partial output missing:\n%s", out)
	}
	if strings.Contains(out, "hidden output") {
		t.Errorf("output from after the failure leaked:\n%s", out)
	}
	if !strings.HasSuffix(out, "partial output\n") {
		t.Errorf("output should end at the failure point, got:\n%q", out)
	}
}

// A panicking experiment becomes an error naming the experiment, not a
// crashed run.
func TestRunListPanicBecomesError(t *testing.T) {
	exps := []Experiment{
		{ID: "T10", Title: "panics", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			panic("kaboom")
		}},
	}
	for _, workers := range []int{1, 4} {
		err := Run(io.Discard, Config{}, exps, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "T10") || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: error %v missing ID or panic value", workers, err)
		}
	}
}

// An experiment that returns normally but prints a FAILS verdict fails
// the run like an error: its output is emitted, the error names it, and
// later output is dropped.
func TestRunListFailsVerdict(t *testing.T) {
	exps := []Experiment{
		{ID: "T20", Title: "refuted", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintf(w, "claim: %s\n", verdict(false))
			return nil
		}},
		{ID: "T21", Title: "unreached", Paper: "none", Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "hidden output")
			return nil
		}},
	}
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		err := Run(&out, Config{}, exps, workers)
		if err == nil || !strings.Contains(err.Error(), "T20") {
			t.Fatalf("workers=%d: err = %v, want one naming T20", workers, err)
		}
		if want := "== T20: refuted (none) ==\nclaim: FAILS\n"; out.String() != want {
			t.Errorf("workers=%d: output %q, want %q", workers, out.String(), want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := Default()
	if cfg.Trials < 10000 || cfg.Sites < 3 || cfg.Bound.MaxLen < 5 {
		t.Errorf("default config too small: %+v", cfg)
	}
}

// Determinism: identical configs produce byte-identical output for the
// randomized experiments.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 5000
	for _, id := range []string{"E08", "E09", "E10"} {
		e, _ := Find(id)
		var a, b bytes.Buffer
		if err := e.Run(&a, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := e.Run(&b, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s output differs across runs with same seed", id)
		}
	}
}

// At the 1 000-trial floor one standard error of the n=1 estimate is
// about 0.0095, so E08's tolerance must scale with the trial count for
// the correct 0.1^n model to hold.
func TestE08HoldsAtTrialFloor(t *testing.T) { holdsAtTrialFloor(t, "E08") }

// X02's occupancy estimates have a standard error up to 0.016 at the
// floor, so its tolerance must scale with the trial count too.
func TestX02HoldsAtTrialFloor(t *testing.T) { holdsAtTrialFloor(t, "X02") }

func holdsAtTrialFloor(t *testing.T, id string) {
	e, _ := Find(id)
	for seed := int64(1); seed <= 8; seed++ {
		cfg := fastConfig()
		cfg.Seed = seed
		cfg.Trials = 1000
		var buf bytes.Buffer
		if err := e.Run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), ": HOLDS") {
			t.Fatalf("seed %d:\n%s", seed, buf.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	if verdict(true) != "HOLDS" || verdict(false) != "FAILS" {
		t.Errorf("verdict strings wrong")
	}
}
