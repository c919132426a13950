// relaxcli is the protocol client for a running relaxd service: it
// executes the paper's three-step quorum protocol over TCP at a chosen
// degradation-ladder rung, either as a one-shot operation (-op) or as
// a seeded workload (-ops), with an optional live relaxation checker
// (-certify) holding the observed history to the claimed rung and an
// exported history file (-history, append) that the audit sidecar
// (relaxsoak -mode audit -lattice taxi) replays independently.
//
// Usage:
//
//	relaxcli -peers 127.0.0.1:7410,127.0.0.1:7411,... [-rung Q1Q2|Q1|Q2|none]
//	         [-op 'Enq(5)' | -ops N] [-seed N] [-clients N] [-client-base N]
//	         [-deq-ratio F] [-certify] [-history F]
//
// The transport is pooled: one multiplexed connection per site carrying
// every in-flight request, with protocol steps fanned out in parallel.
//
// Exit status is nonzero if the run was degraded below the claimed
// rung (-certify), or if a one-shot operation fails.
//
// Sequential invocations against the same service must use disjoint
// Lamport clock identities: pass -client-base so run k's clients are
// numbered above run k-1's (the clocks themselves re-synchronize from
// the log's timestamps on the first operation). With -certify against
// a warm service, also pass the same -history file every run: the
// checker replays the accumulated export as its prefix, since the
// object's history starts at genesis, not at this run's first op.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxcli:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("relaxcli", flag.ContinueOnError)
	peers := fs.String("peers", "", "comma-separated site addresses, in site order (required)")
	rung := fs.String("rung", "Q1Q2", "degradation-ladder rung to execute at: Q1Q2, Q1, Q2, or none")
	opText := fs.String("op", "", "one-shot operation: 'Enq(5)' or 'Deq'")
	ops := fs.Int("ops", 0, "run a seeded workload of N operations")
	seed := fs.Int64("seed", 1987, "workload seed")
	clients := fs.Int("clients", 1, "protocol clients the workload round-robins over")
	clientBase := fs.Int("client-base", 0, "first client clock identity (0 = sites+1); later runs against the same service must start above earlier runs'")
	deqRatio := fs.Float64("deq-ratio", 0.45, "workload dequeue fraction")
	certify := fs.Bool("certify", false, "attach the live relaxation checker and fail if the history escapes the claimed rung")
	historyPath := fs.String("history", "", "append completed operations to this history file (the audit sidecar's input)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("-peers is required")
	}
	if (*opText == "") == (*ops == 0) {
		return fmt.Errorf("exactly one of -op or -ops is required")
	}
	if *clients < 1 {
		return fmt.Errorf("-clients %d: need at least 1 client", *clients)
	}
	if *ops < 0 {
		return fmt.Errorf("-ops %d: need a non-negative operation count", *ops)
	}
	if *deqRatio < 0 || *deqRatio > 1 {
		return fmt.Errorf("-deq-ratio %g: need a fraction in [0, 1]", *deqRatio)
	}
	addrs := strings.Split(*peers, ",")
	n := len(addrs)
	if n < 3 {
		return fmt.Errorf("-peers names %d sites: taxi assignments need ≥ 3 sites", n)
	}
	assignments := quorum.TaxiAssignments(n)
	gate, ok := assignments[*rung]
	if !ok {
		return fmt.Errorf("unknown rung %q (have Q1Q2, Q1, Q2, none)", *rung)
	}

	var checker *relaxcheck.Checker
	if *certify {
		// Every client in this run executes the same rung, so the
		// nominal per-rung constraint sets are sound claims here (mixed
		// executions are what makes them unsound — see the discussion on
		// relaxcheck.TaxiClaims vs TaxiRungLevels).
		lat := core.TaxiSimpleLattice()
		u := lat.Universe
		checker = relaxcheck.New(lat, relaxcheck.Options{Claims: map[string]lattice.Set{
			"Q1Q2": u.All(),
			"Q1":   u.Named(core.ConstraintQ1),
			"Q2":   u.Named(core.ConstraintQ2),
			"none": 0,
		}})
		// The checker needs the object's history from genesis, not from
		// this run's first operation: replay the accumulated export so a
		// Deq of an element some earlier run enqueued is not misread as
		// a violation. The claim covers only this run's operations.
		if err := replayHistory(checker, *historyPath); err != nil {
			return err
		}
		checker.ObserveClaim(-1, *rung)
	}

	tr := relaxd.NewPooledTransport(addrs, 0)
	defer tr.Close()
	base := *clientBase
	if base <= 0 {
		base = n + 1
	}
	cls := make([]*relaxd.Client, *clients)
	for i := range cls {
		cfg := relaxd.PQClientConfig(tr)
		cfg.Quorums = assignments["Q1Q2"]
		if checker != nil {
			cfg.Audit = checker
		}
		cls[i] = relaxd.NewClient(cfg, base+i)
	}
	exec := func(cl *relaxd.Client, inv history.Invocation) (history.Op, error) {
		if *rung == "Q1Q2" {
			return cl.Execute(inv)
		}
		return cl.ExecuteUnder(inv, gate, *rung)
	}

	var observed history.History
	var failure error
	if *opText != "" {
		inv, err := parseInvocation(*opText)
		if err != nil {
			return err
		}
		op, err := exec(cls[0], inv)
		if err != nil {
			failure = err
			fmt.Fprintf(w, "relaxcli: %s failed: %v\n", inv, err)
		} else {
			observed = append(observed, op)
			fmt.Fprintf(w, "relaxcli: %s\n", op)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		counts := map[string]int{}
		for i := 0; i < *ops; i++ {
			var inv history.Invocation
			if rng.Float64() < *deqRatio {
				inv = history.DeqInv()
			} else {
				inv = history.EnqInv(rng.Intn(9) + 1)
			}
			op, err := exec(cls[i%len(cls)], inv)
			switch {
			case err == nil:
				observed = append(observed, op)
				counts["ok"]++
			case errors.Is(err, cluster.ErrNoResponse):
				counts["no-response"]++ // e.g. Deq on an empty queue
			case errors.Is(err, cluster.ErrUnavailable):
				counts["unavailable"]++
			case errors.Is(err, relaxd.ErrNoQuorumAck):
				counts["no-quorum-ack"]++
			default:
				return fmt.Errorf("op %d (%s): %w", i, inv, err)
			}
		}
		fmt.Fprintf(w, "relaxcli: %d ops: %d ok, %d no-response, %d unavailable, %d no-quorum-ack\n",
			*ops, counts["ok"], counts["no-response"], counts["unavailable"], counts["no-quorum-ack"])
	}

	if *historyPath != "" && len(observed) > 0 {
		if err := appendHistory(*historyPath, observed); err != nil {
			return err
		}
	}
	if checker != nil {
		if v := checker.Violation(); v != nil {
			fmt.Fprintf(w, "relaxcli: certify: VIOLATION at op %d: %s\n", v.Step, v.Kind)
			return fmt.Errorf("history escaped the claimed rung %s", *rung)
		}
		fmt.Fprintf(w, "relaxcli: certify: clean at rung %s (level %s, %d ops)\n",
			*rung, checker.Level(), checker.Steps())
	}
	return failure
}

// parseInvocation accepts 'Enq(5)', 'Deq', or 'Deq()'.
func parseInvocation(s string) (history.Invocation, error) {
	s = strings.TrimSpace(s)
	if s == "Deq" || s == "Deq()" {
		return history.DeqInv(), nil
	}
	if strings.HasPrefix(s, "Enq(") && strings.HasSuffix(s, ")") {
		e, err := strconv.Atoi(s[len("Enq(") : len(s)-1])
		if err == nil {
			return history.EnqInv(e), nil
		}
	}
	return history.Invocation{}, fmt.Errorf("cannot parse operation %q (want 'Enq(N)' or 'Deq')", s)
}

// replayHistory feeds an existing history export through the checker —
// the prefix context for certifying a run against a warm service. A
// missing file (or no -history at all) is an empty prefix.
func replayHistory(c *relaxcheck.Checker, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := history.ReadLines(f)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", path, err)
	}
	for _, op := range h {
		c.ObserveOp(op)
	}
	return nil
}

// appendHistory appends ops to the history file, one per line —
// accumulating one auditable history across sequential runs.
func appendHistory(path string, h history.History) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := history.WriteLines(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
