// Package experiments regenerates every figure and formal claim of the
// paper as a runnable experiment: the trait/interface figures as
// executable checks, Theorem 4 and its companions as bounded language-
// equivalence tables, the probabilistic example as a Monte-Carlo run,
// the availability and latency trade-offs as simulations over the
// cluster substrate, and Figures 4-2 and 5-1 as regenerated tables.
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-vs-measured output.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"

	"relaxlattice/internal/core"
	"relaxlattice/internal/obs"
)

// Config parameterizes experiment runs. The zero value is not useful;
// start from Default.
type Config struct {
	// Seed drives all randomness; same seed, same output.
	Seed int64
	// Bound is the history bound for language comparisons.
	Bound core.Bound
	// Trials is the Monte-Carlo sample count.
	Trials int
	// Sites is the replica count for cluster simulations.
	Sites int
	// Metrics, when set, collects the observability counters of every
	// substrate an experiment touches (cluster, txn runtime). The runner
	// hands each experiment a scratch registry and absorbs them in list
	// order, so the final snapshot is identical at any worker count.
	Metrics *obs.Registry
	// Trace, when set, receives each experiment's event journal,
	// appended strictly in list order behind an "experiment" marker
	// event.
	Trace *obs.Recorder
}

// Default returns the configuration used for EXPERIMENTS.md. The
// history bound of 8 is affordable because language comparisons run on
// the memoized powerset engine (automaton/engine.go), whose work grows
// with the number of state-set classes per depth rather than the number
// of histories.
func Default() Config {
	return Config{
		Seed:   1987, // the paper's year; any seed works
		Bound:  core.Bound{MaxElem: 2, MaxLen: 8},
		Trials: 200000,
		Sites:  5,
	}
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E04".
	ID string
	// Title summarizes the artifact.
	Title string
	// Paper cites the figure/section reproduced.
	Paper string
	// Run writes the regenerated table(s) to w.
	Run func(w io.Writer, cfg Config) error
}

var registry = map[string]Experiment{}

// mustOK panics on errors from workload-construction calls whose
// failure would mean the harness itself is broken (enqueues into fresh
// queues, commits of live transactions, and the like).
func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment in ID order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// errClaimFails is the error of an experiment that returned normally
// but printed a FAILS verdict: a refuted claim fails the run.
var errClaimFails = errors.New("a claim " + verdict(false))

// Run runs exps concurrently on up to workers goroutines (GOMAXPROCS
// when workers <= 0; 1 is the serial schedule). Each experiment writes
// into its own buffer behind a header line, and buffers are emitted
// strictly in list order, so the output is byte-identical at any
// worker count. An experiment fails when it returns an error, panics,
// or prints a FAILS verdict; Run then emits that experiment's output,
// reports its ID in the error, and discards the output of everything
// after it.
func Run(w io.Writer, cfg Config, exps []Experiment, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*expResult, len(exps))
	for i := range results {
		results[i] = &expResult{done: make(chan struct{})}
	}
	sem := make(chan struct{}, workers)
	for i, e := range exps {
		results[i].scratch = scratchConfig(cfg)
		go func(r *expResult, e Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			defer close(r.done)
			fmt.Fprintf(&r.buf, "== %s: %s (%s) ==\n", e.ID, e.Title, e.Paper)
			r.err = runExperiment(&r.buf, r.scratch, e)
			if r.err == nil && bytes.Contains(r.buf.Bytes(), []byte(verdict(false))) {
				r.err = errClaimFails
			}
			if r.err == nil {
				fmt.Fprintln(&r.buf)
			}
		}(results[i], e)
	}
	for i, e := range exps {
		r := results[i]
		<-r.done
		if _, err := w.Write(r.buf.Bytes()); err != nil {
			return err
		}
		// Merge before the error check: the failing experiment's metrics
		// are part of its output.
		absorbScratch(cfg, r.scratch, i, e)
		if r.err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, r.err)
		}
	}
	return nil
}

// expResult is one experiment's buffered output. done is closed when
// buf and err are final.
type expResult struct {
	buf     bytes.Buffer
	err     error
	scratch Config // per-experiment observation sinks
	done    chan struct{}
}

// scratchConfig gives one experiment its own observation sinks (when
// the parent has any), so concurrent experiments never interleave
// journals. The scratch sinks are merged back by absorbScratch.
func scratchConfig(cfg Config) Config {
	scratch := cfg
	if cfg.Metrics != nil {
		scratch.Metrics = obs.NewRegistry()
	}
	if cfg.Trace != nil {
		scratch.Trace = obs.NewRecorder()
	}
	return scratch
}

// absorbScratch merges one experiment's scratch sinks into the parent
// config. Called strictly in list order, so metric totals and journal
// bytes are identical at any worker count.
func absorbScratch(cfg, scratch Config, idx int, e Experiment) {
	if cfg.Metrics != nil {
		cfg.Metrics.Absorb(scratch.Metrics)
	}
	if cfg.Trace != nil {
		cfg.Trace.Record(int64(idx), "experiment", obs.KV{K: "id", V: e.ID})
		cfg.Trace.Append(scratch.Trace)
	}
}

// runExperiment runs one experiment, converting panics into errors so a
// failing experiment reports its ID instead of taking down the whole
// run.
func runExperiment(w io.Writer, cfg Config, e Experiment) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run(w, cfg)
}

// verdict renders a pass/fail marker.
func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "FAILS"
}
