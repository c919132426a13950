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
// A third mode, audit, is the audit sidecar: it replays an exported
// observed history (-history, written by a cluster, txn, longhaul or
// relaxcli run) through the online checker alone and prints the
// verdict. The verdict is a function of the history, so an audit that
// is killed is simply run again (DESIGN.md §14).
//
// A fourth mode, longhaul, is the kill-9 soak battery: a real networked
// relaxd service (TCP listeners, durable segmented WALs, pooled
// multiplexed transport) under sustained client load while sites are
// hard-killed continuously and periodically wiped — rejoining via
// certified snapshot shipping — with the online checker auditing every
// completed operation and the final merged log certified at the
// strongest taxi rung. Unlike cluster/txn runs it is genuinely
// nondeterministic; the verdict lines are the artifact.
//
// Usage:
//
//	relaxsoak [-mode cluster|txn|both|audit|longhaul] [-workload uniform|bursty|skewed|fault-correlated|all]
//	          [-seed N] [-clients N] [-ops N] [-sites N] [-dequeuers N]
//	          [-calm] [-metrics F] [-trace F]
//	          [-spans F] [-history F] [-lattice taxi|spool]
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
	mode := fs.String("mode", "both", "what to soak: cluster, txn, both, audit (replay a -history export), or longhaul (kill -9 battery over TCP)")
	workload := fs.String("workload", "uniform", "workload kind (uniform, bursty, skewed, fault-correlated, or all)")
	seed := fs.Int64("seed", 1987, "root seed for the deterministic run")
	clients := fs.Int("clients", 200, "concurrent clients")
	ops := fs.Int("ops", 10000, "operations per run")
	sites := fs.Int("sites", 5, "cluster sites")
	dequeuers := fs.Int("dequeuers", 3, "txn-mode concurrent dequeuer bound (spool universe size)")
	calm := fs.Bool("calm", false, "disable the stochastic background fault process (cluster mode)")
	metricsPath := fs.String("metrics", "", "write the deterministic metrics snapshot (JSON) to this file")
	tracePath := fs.String("trace", "", "write the logical-clock event journal (JSON Lines) to this file")
	spansPath := fs.String("spans", "", "cluster/txn with one -workload: write the causal span stream (JSON Lines) to this file")
	historyPath := fs.String("history", "", "cluster/txn with one -workload: write the audited history to this file; audit: read it")
	auditLattice := fs.String("lattice", "taxi", "audit-mode lattice: taxi (cluster histories) or spool (txn histories)")
	killEvery := fs.Duration("kill-every", 100*time.Millisecond, "longhaul mode: dwell between hard kill cycles")
	wipeEvery := fs.Int("wipe-every", 3, "longhaul mode: every Nth kill cycle wipes the victim's store (rejoin via snapshot shipping)")
	dir := fs.String("dir", "", "longhaul mode: store root directory (empty = a temp dir, removed at exit)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "cluster", "txn", "both", "audit", "longhaul":
	default:
		return fmt.Errorf("unknown -mode %q (want cluster, txn, both, audit or longhaul)", *mode)
	}
	switch {
	case *ops < 1:
		return fmt.Errorf("-ops %d: need at least 1 operation", *ops)
	case *clients < 1:
		return fmt.Errorf("-clients %d: need at least 1 client", *clients)
	case *dequeuers < 1:
		return fmt.Errorf("-dequeuers %d: need at least 1 dequeuer", *dequeuers)
	case *sites < 3 && (*mode == "cluster" || *mode == "both" || *mode == "longhaul"):
		return fmt.Errorf("-sites %d: taxi assignments need ≥ 3 sites", *sites)
	case *killEvery <= 0:
		return fmt.Errorf("-kill-every %v: need a positive dwell between kills", *killEvery)
	case *wipeEvery < 1:
		return fmt.Errorf("-wipe-every %d: need at least 1 (every kill wipes)", *wipeEvery)
	case *historyPath != "" && (*mode == "both" || (*mode == "cluster" || *mode == "txn") && *workload == "all"):
		return fmt.Errorf("-history exports one object's history: select one run with -mode cluster or txn and a single -workload")
	case *spansPath != "" && (*mode != "cluster" && *mode != "txn" || *workload == "all"):
		// Cluster spans are timed in simulated microseconds and txn spans
		// in schedule positions, and every run starts at time 0, so spans
		// of several runs in one stream add up to no critical path.
		return fmt.Errorf("-spans traces one run: select it with -mode cluster or txn and a single -workload")
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
		return runAudit(w, *historyPath, *auditLattice, *dequeuers)
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
	var audited history.History

	failed := false
	for _, kind := range kinds {
		w0 := relaxcheck.Workload{Kind: kind, Clients: *clients, Ops: *ops}
		if *mode == "cluster" || *mode == "both" {
			cfg := relaxcheck.ClusterSoakConfig{
				Workload: w0,
				Seed:     *seed,
				Sites:    *sites,
				Metrics:  reg,
				Trace:    rec,
				Spans:    spans,
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
				Workload:  w0,
				Seed:      *seed,
				Dequeuers: *dequeuers,
				Metrics:   reg,
				Trace:     rec,
				Spans:     spans,
			})
			printReport(w, "txn", kind, report)
			audited = append(audited, report.Observed...)
			if err != nil {
				fmt.Fprintf(w, "  FAIL: %v\n", err)
				failed = true
			}
		}
	}
	if err := obs.WriteFiles(*metricsPath, *tracePath, reg, rec); err != nil {
		return err
	}
	if *spansPath != "" {
		if err := obs.WriteFile(*spansPath, spans.WriteJSONL); err != nil {
			return err
		}
	}
	if *historyPath != "" {
		if err := obs.WriteFile(*historyPath, func(f io.Writer) error {
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

func printReport(w io.Writer, mode string, kind relaxcheck.Kind, r *relaxcheck.SoakReport) {
	floor := r.FloorClaim
	if floor == "" {
		floor = "(top; no degradation claimed)"
	}
	fmt.Fprintf(w, "%-8s %-16s ops=%d completed=%d failed=%d audited=%d level=%s floor=%s maxfrontier=%d\n",
		mode, kind, r.Ops, r.Completed, r.Failed, r.Steps, r.Level, floor, r.MaxFrontier)
}

// runAudit replays an exported observed history through the online
// checker alone — the audit sidecar.
func runAudit(w io.Writer, historyPath, latName string, dequeuers int) error {
	if historyPath == "" {
		return fmt.Errorf("-mode audit requires -history (an exported observed history)")
	}
	var lat *lattice.Relaxation
	switch latName {
	case "taxi":
		lat = core.TaxiSimpleLattice()
	case "spool":
		lat = core.SemiqueueLattice(dequeuers)
	default:
		return fmt.Errorf("unknown audit lattice %q (want taxi or spool)", latName)
	}
	hf, err := os.Open(historyPath)
	if err != nil {
		return err
	}
	h, err := history.ReadLines(hf)
	hf.Close()
	if err != nil {
		return err
	}

	checker := relaxcheck.New(lat, relaxcheck.Options{})
	for _, op := range h {
		checker.ObserveOp(op)
	}
	fmt.Fprintf(w, "audit    %-16s ops=%d level=%s maxfrontier=%d\n",
		latName, len(h), checker.Level(), checker.MaxFrontier())
	if v := checker.Violation(); v != nil {
		fmt.Fprintf(w, "  FAIL: %v\n", v)
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintln(w, "audited history stays inside its relaxation lattice")
	return nil
}
