// relaxsoak is the deterministic soak/stress harness: it drives
// hundreds of adaptive clients through tens of thousands of operations
// on simulated time — against the replicated quorum-consensus cluster
// and against the transactional print-spooler runtime — with the
// online relaxation checker (internal/relaxcheck) attached as a live
// audit. The run fails, with a nonzero exit, the moment an observed
// prefix escapes the claimed lattice level.
//
// Every run is a pure function of its flags: the report text, the
// metrics snapshot, and the event journal are byte-identical across
// repetitions and across GOMAXPROCS settings (the whole workload runs
// on a single-threaded discrete-event engine).
//
// A third mode, conc, soaks the lock-free relaxed structures of
// internal/conc: real goroutines on real shared memory, each recorded
// run certified against the structure's claimed lattice element. The
// schedule there is genuinely nondeterministic, so the verdict line is
// the deterministic artifact — it names the structure, its claim, and
// the certification outcome, never schedule-dependent counts.
//
// A fifth mode, longhaul, is the kill-9 soak battery: a real networked
// relaxd service (TCP listeners, durable segmented WALs, pooled
// multiplexed transport) under sustained client load while sites are
// hard-killed continuously and periodically wiped — rejoining via
// certified snapshot shipping — with the online checker auditing every
// completed operation and the final merged log certified at the
// strongest taxi rung. Unlike cluster/txn runs it is genuinely
// nondeterministic; the verdict lines are the artifact.
//
// A fourth mode, audit, is the checkpointable audit sidecar: it replays
// an exported observed history (-history, written by a cluster or txn
// run) through the online checker alone, writing a resumable checkpoint
// every -checkpoint-every operations. A run killed at any point (or cut
// short with -stop-at) resumes from its checkpoint (-resume) and, by
// the checkpoint/restore soundness property (DESIGN.md §14), reaches
// exactly the verdicts of the run that was never interrupted.
//
// Usage:
//
//	relaxsoak [-mode cluster|txn|both|conc|audit|longhaul] [-workload uniform|bursty|skewed|fault-correlated|all]
//	          [-seed N] [-clients N] [-ops N] [-sites N] [-dequeuers N]
//	          [-workers N] [-sample N] [-calm] [-metrics F] [-trace F]
//	          [-spans F] [-flight F] [-history F]
//	          [-lattice taxi|spool] [-checkpoint F] [-checkpoint-every N]
//	          [-resume F] [-stop-at N] [-window N] [-frontier-cap N]
//	          [-kill-every D] [-wipe-every N] [-dir P]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/conc"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/relaxcheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxsoak:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("relaxsoak", flag.ContinueOnError)
	mode := fs.String("mode", "both", "what to soak: cluster, txn, both, conc, audit (replay a -history export), or longhaul (kill -9 battery over TCP)")
	workload := fs.String("workload", "uniform", "workload kind (uniform, bursty, skewed, fault-correlated, or all)")
	seed := fs.Int64("seed", 1987, "root seed for the deterministic run")
	clients := fs.Int("clients", 200, "concurrent clients")
	ops := fs.Int("ops", 10000, "operations per run")
	sites := fs.Int("sites", 5, "cluster sites")
	dequeuers := fs.Int("dequeuers", 3, "txn-mode concurrent dequeuer bound (spool universe size)")
	workers := fs.Int("workers", 4, "conc-mode goroutines per structure")
	sample := fs.Int("sample", 0, "record the checker verdict every N ops")
	calm := fs.Bool("calm", false, "disable the stochastic background fault process (cluster mode)")
	metricsPath := fs.String("metrics", "", "write the deterministic metrics snapshot (JSON) to this file")
	tracePath := fs.String("trace", "", "write the logical-clock event journal (JSON Lines) to this file")
	spansPath := fs.String("spans", "", "write the causal span stream (JSON Lines) to this file")
	flightPath := fs.String("flight", "", "on the first violation, dump the degradation flight recorder (JSON Lines) to this file")
	historyPath := fs.String("history", "", "cluster/txn: write the audited history to this file; audit: read it")
	auditLattice := fs.String("lattice", "taxi", "audit-mode lattice: taxi (cluster histories) or spool (txn histories)")
	checkpointPath := fs.String("checkpoint", "", "audit mode: write a resumable checker checkpoint to this file")
	checkpointEvery := fs.Int("checkpoint-every", 1000, "audit mode: checkpoint every N observed operations (plus one at exit)")
	resumePath := fs.String("resume", "", "audit mode: resume from this checkpoint instead of the empty history")
	stopAt := fs.Int("stop-at", 0, "audit mode: stop after N total operations (simulates a kill; 0 = run to the end)")
	window := fs.Int("window", 0, "audit mode: keep only the most recent N sampled verdicts")
	frontierCap := fs.Int("frontier-cap", 0, "audit mode: abandon lattice elements whose frontier exceeds N states (bounded memory; suppresses violations while any element is abandoned)")
	killEvery := fs.Duration("kill-every", 100*time.Millisecond, "longhaul mode: dwell between hard kill cycles")
	wipeEvery := fs.Int("wipe-every", 3, "longhaul mode: every Nth kill cycle wipes the victim's store (rejoin via snapshot shipping)")
	dir := fs.String("dir", "", "longhaul mode: store root directory (empty = a temp dir, removed at exit)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "cluster", "txn", "both", "conc", "audit", "longhaul":
	default:
		return fmt.Errorf("unknown -mode %q (want cluster, txn, both, conc, audit or longhaul)", *mode)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *mode == "longhaul" {
		return runLonghaul(w, longhaulConfig{
			sites:       *sites,
			clients:     *clients,
			ops:         *ops,
			seed:        *seed,
			killEvery:   *killEvery,
			wipeEvery:   *wipeEvery,
			dir:         *dir,
			historyPath: *historyPath,
		})
	}

	if *mode == "audit" {
		return runAudit(w, auditConfig{
			historyPath:     *historyPath,
			lattice:         *auditLattice,
			dequeuers:       *dequeuers,
			sample:          *sample,
			window:          *window,
			frontierCap:     *frontierCap,
			checkpointPath:  *checkpointPath,
			checkpointEvery: *checkpointEvery,
			resumePath:      *resumePath,
			stopAt:          *stopAt,
		})
	}

	if *mode == "conc" {
		if runConc(w, *workers, *ops) {
			return fmt.Errorf("lattice-level violations detected")
		}
		fmt.Fprintln(w, "all conc runs landed inside their claimed lattice levels")
		return nil
	}

	var kinds []relaxcheck.Kind
	if *workload == "all" {
		kinds = relaxcheck.Kinds()
	} else {
		k, err := relaxcheck.ParseKind(*workload)
		if err != nil {
			return err
		}
		kinds = []relaxcheck.Kind{k}
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	var spans *trace.Tracer
	if *spansPath != "" {
		spans = trace.NewTracer("soak", nil)
	}
	var flight *trace.FlightRecorder
	flightDumped := false
	onViolation := func(v relaxcheck.Violation) {
		if flightDumped {
			return
		}
		flightDumped = true
		if err := dumpFlight(*flightPath, flight, v); err != nil {
			fmt.Fprintln(os.Stderr, "relaxsoak: flight dump:", err)
		}
	}
	if *flightPath != "" {
		flight = trace.NewFlightRecorder(512, 512)
		spans.SetMirror(flight)
		rec.SetObserver(flight.ObserveEvent)
	} else {
		onViolation = nil
	}
	var audited history.History

	failed := false
	for _, kind := range kinds {
		w0 := relaxcheck.Workload{Kind: kind, Clients: *clients, Ops: *ops}
		if *mode == "cluster" || *mode == "both" {
			cfg := relaxcheck.ClusterSoakConfig{
				Workload:    w0,
				Seed:        *seed,
				Sites:       *sites,
				Metrics:     reg,
				Trace:       rec,
				SampleEvery: *sample,
				Spans:       spans,
				OnViolation: onViolation,
			}
			if !*calm && kind != relaxcheck.FaultCorrelated {
				cfg.Faults = cluster.FaultConfig{MTTF: 60, MTTR: 8, MTBP: 150, PartitionDwell: 12}
			}
			report, err := relaxcheck.RunClusterSoak(cfg)
			printReport(w, "cluster", kind, report)
			audited = append(audited, report.Observed...)
			if err != nil {
				fmt.Fprintf(w, "  FAIL: %v\n", err)
				failed = true
			}
		}
		if *mode == "txn" || *mode == "both" {
			report, err := relaxcheck.RunTxnSoak(relaxcheck.TxnSoakConfig{
				Workload:    w0,
				Seed:        *seed,
				Dequeuers:   *dequeuers,
				Metrics:     reg,
				Trace:       rec,
				SampleEvery: *sample,
				Spans:       spans,
				OnViolation: onViolation,
			})
			printReport(w, "txn", kind, report)
			audited = append(audited, report.Observed...)
			if err != nil {
				fmt.Fprintf(w, "  FAIL: %v\n", err)
				failed = true
			}
		}
	}
	if err := writeObs(*metricsPath, *tracePath, reg, rec); err != nil {
		return err
	}
	if *spansPath != "" {
		if err := writeFile(*spansPath, spans.WriteJSONL); err != nil {
			return err
		}
	}
	if *historyPath != "" {
		if err := writeFile(*historyPath, func(f io.Writer) error {
			return history.WriteLines(f, audited)
		}); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintln(w, "all soak runs landed inside their claimed lattice levels")
	return nil
}

// runConc soaks every internal/conc structure with `workers`
// goroutines sharing `ops` operations, then certifies each recorded
// history at the structure's claimed rung. Output lines carry only
// schedule-independent facts so the report text stays deterministic
// even though the interleavings are not.
func runConc(w io.Writer, workers, ops int) (failed bool) {
	per := ops / workers
	if per < 1 {
		per = 1
	}
	structures := []func(j *conc.Journal) conc.RelaxedQueue{
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewStrict(j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewSegQueue(16, workers+1, j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewSegQueue(64, workers+1, j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewDupQueue(j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewShardPQ(8, 2, 1, j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewLanePQ(workers+1, 8, j) },
		func(j *conc.Journal) conc.RelaxedQueue { return conc.NewStrictPQ(j) },
	}
	for _, mk := range structures {
		j := conc.NewJournal(workers * per)
		q := mk(j)
		conc.RunWorkload(q, workers, per)
		verdict := "certified"
		if d := j.Dropped(); d != 0 {
			verdict = "FAIL (journal overflow)"
			failed = true
		} else if v := conc.Certify(q.Claim(), j.History(), workers).Violation(); v != nil {
			verdict = fmt.Sprintf("FAIL (%v)", v)
			failed = true
		}
		fmt.Fprintf(w, "conc     %-16s workers=%d claim=%s verdict=%s\n",
			q.Name(), workers, q.Claim().Level, verdict)
	}
	return failed
}

func printReport(w io.Writer, mode string, kind relaxcheck.Kind, r *relaxcheck.SoakReport) {
	floor := r.FloorClaim
	if floor == "" {
		floor = "(top; no degradation claimed)"
	}
	fmt.Fprintf(w, "%-8s %-16s ops=%d completed=%d failed=%d audited=%d level=%s floor=%s maxfrontier=%d\n",
		mode, kind, r.Ops, r.Completed, r.Failed, r.Steps, r.Level, floor, r.MaxFrontier)
}

// auditConfig gathers the audit-sidecar flags.
type auditConfig struct {
	historyPath     string
	lattice         string
	dequeuers       int
	sample          int
	window          int
	frontierCap     int
	checkpointPath  string
	checkpointEvery int
	resumePath      string
	stopAt          int
}

// runAudit replays an exported observed history through the online
// checker alone — the audit sidecar. Checkpoints are written every
// checkpointEvery operations plus once at exit, so killing the process
// anywhere loses at most checkpointEvery operations of progress and
// never any soundness: resuming from the latest checkpoint reproduces
// the uninterrupted run's verdicts exactly.
func runAudit(w io.Writer, cfg auditConfig) error {
	if cfg.historyPath == "" {
		return fmt.Errorf("-mode audit requires -history (an exported observed history)")
	}
	hf, err := os.Open(cfg.historyPath)
	if err != nil {
		return err
	}
	h, err := history.ReadLines(hf)
	hf.Close()
	if err != nil {
		return err
	}

	var lat *lattice.Relaxation
	switch cfg.lattice {
	case "taxi":
		lat = core.TaxiSimpleLattice()
	case "spool":
		lat = core.SemiqueueLattice(cfg.dequeuers)
	default:
		return fmt.Errorf("unknown audit lattice %q (want taxi or spool)", cfg.lattice)
	}
	opts := relaxcheck.Options{
		SampleEvery: cfg.sample,
		Window:      cfg.window,
		FrontierCap: cfg.frontierCap,
	}

	checker := relaxcheck.New(lat, opts)
	start := 0
	if cfg.resumePath != "" {
		rf, err := os.Open(cfg.resumePath)
		if err != nil {
			return err
		}
		checker, err = relaxcheck.Resume(lat, opts, rf)
		rf.Close()
		if err != nil {
			return err
		}
		start = checker.Steps()
		if start > len(h) {
			return fmt.Errorf("checkpoint is %d operations ahead of the %d-operation history", start, len(h))
		}
	}
	stop := len(h)
	if cfg.stopAt > 0 && cfg.stopAt < stop {
		stop = cfg.stopAt
	}

	writeCheckpoint := func() error {
		if cfg.checkpointPath == "" {
			return nil
		}
		return writeFile(cfg.checkpointPath, checker.Checkpoint)
	}
	for i := start; i < stop; i++ {
		checker.ObserveOp(h[i])
		if cfg.checkpointEvery > 0 && (i+1-start)%cfg.checkpointEvery == 0 {
			if err := writeCheckpoint(); err != nil {
				return err
			}
		}
	}
	if err := writeCheckpoint(); err != nil {
		return err
	}

	fmt.Fprintf(w, "audit    %-16s ops=%d from=%d to=%d level=%s abandoned=%d maxfrontier=%d\n",
		cfg.lattice, len(h), start, stop, checker.Level(), checker.Abandoned(), checker.MaxFrontier())
	if v := checker.Violation(); v != nil {
		fmt.Fprintf(w, "  FAIL: %v\n", v)
		return fmt.Errorf("lattice-level violations detected")
	}
	if stop < len(h) {
		fmt.Fprintf(w, "audit stopped at %d of %d operations (resumable from the checkpoint)\n", stop, len(h))
		return nil
	}
	fmt.Fprintln(w, "audited history stays inside its relaxation lattice")
	return nil
}

// dumpFlight writes the flight-recorder artifact for a violation.
func dumpFlight(path string, fr *trace.FlightRecorder, v relaxcheck.Violation) error {
	if path == "" || fr == nil {
		return nil
	}
	return writeFile(path, func(f io.Writer) error {
		return fr.WriteDump(f,
			obs.KV{K: "kind", V: v.Kind},
			obs.KV{K: "step", V: fmt.Sprint(v.Step)},
			obs.KV{K: "op", V: v.Op.String()},
			obs.KV{K: "claim", V: v.Claim})
	})
}

// writeFile creates path and writes through fn, closing cleanly.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeObs(metricsPath, tracePath string, reg *obs.Registry, rec *obs.Recorder) error {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
