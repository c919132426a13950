// qsim simulates a replicated priority queue managed by quorum
// consensus under site crashes and network partitions, demonstrating
// graceful degradation: as failures strike, degrading clients keep
// operating against whatever sites they can reach, and the tool audits
// the observed history against the taxi relaxation lattice to report
// exactly how far behavior degraded (Section 3.3).
//
// Usage:
//
//	qsim [-sites N] [-ops N] [-seed N] [-pcrash P] [-ppartition P] [-assignment Q1Q2|Q1|Q2|none] [-degrade]
//	qsim -adaptive [-online-check] [-sites N] [-ops N] [-seed N] [-mttf T] [-mttr T] [-mtbp T] [-dwell T] [-horizon T]
//
// In -adaptive mode clients carry a retry/backoff policy and an
// adaptive degradation controller over the ladder Q1Q2 → Q1 → none on
// a discrete-event engine: stochastic crash/partition processes
// (stopped at half the horizon) drive the controller down the ladder
// and the background probe brings it back; the run ends with the same
// lattice audit, now checked against the controller's claimed floor.
// With -online-check an incremental checker (internal/relaxcheck) also
// rides the observation path, tracking the lattice position live and
// flagging any operation that escapes the claimed level as it happens.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/resilience"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

func main() {
	sites := flag.Int("sites", 5, "replica sites")
	ops := flag.Int("ops", 60, "operations to attempt")
	seed := flag.Int64("seed", 1987, "random seed")
	pCrash := flag.Float64("pcrash", 0.05, "per-op probability a random site crashes")
	pRepair := flag.Float64("prepair", 0.10, "per-op probability all sites are restored and healed")
	pPartition := flag.Float64("ppartition", 0.05, "per-op probability the network splits in two")
	assignment := flag.String("assignment", "Q1Q2", "quorum assignment: Q1Q2, Q1, Q2, none")
	degrade := flag.Bool("degrade", true, "clients fall down the lattice instead of failing")
	adaptive := flag.Bool("adaptive", false, "run retry/backoff clients with an adaptive degradation controller")
	onlineCheck := flag.Bool("online-check", false, "adaptive: attach the online incremental relaxation checker to the observation path")
	mttf := flag.Float64("mttf", 15, "adaptive: mean time between site crashes (sim time; 0 disables)")
	mttr := flag.Float64("mttr", 10, "adaptive: mean site repair time (sim time)")
	mtbp := flag.Float64("mtbp", 40, "adaptive: mean time between partitions (sim time; 0 disables)")
	dwell := flag.Float64("dwell", 15, "adaptive: mean partition dwell before healing (sim time)")
	horizon := flag.Float64("horizon", 400, "adaptive: simulation horizon (faults stop at half of it)")
	flag.Parse()

	var err error
	if *adaptive {
		err = runAdaptive(os.Stdout, *sites, *ops, *seed,
			cluster.FaultConfig{MTTF: *mttf, MTTR: *mttr, MTBP: *mtbp, PartitionDwell: *dwell}, *horizon, *onlineCheck)
	} else {
		err = run(os.Stdout, *sites, *ops, *seed, *pCrash, *pRepair, *pPartition, *assignment, *degrade)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsim:", err)
		os.Exit(1)
	}
}

// checkSites rejects cluster sizes the taxi quorum assignments cannot
// be built for (quorum.TaxiAssignments panics below 3 sites).
func checkSites(sites int) error {
	if sites < 3 {
		return fmt.Errorf("-sites %d: taxi assignments need ≥ 3 sites", sites)
	}
	return nil
}

func run(w io.Writer, sites, ops int, seed int64, pCrash, pRepair, pPartition float64, assignment string, degrade bool) error {
	if err := checkSites(sites); err != nil {
		return err
	}
	assigns := quorum.TaxiAssignments(sites)
	voting, ok := assigns[assignment]
	if !ok {
		return fmt.Errorf("unknown assignment %q", assignment)
	}
	fmt.Fprintf(w, "replicated taxi queue: %d sites, %s, degrade=%v\n", sites, voting, degrade)
	c := cluster.New(cluster.Config{
		Sites:   sites,
		Quorums: voting,
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
	})
	g := sim.NewRNG(seed)
	counts := sim.NewCounter()
	lat := core.TaxiSimpleLattice()
	checker := lattice.NewStepChecker(lat)
	describe := func(sets []lattice.Set) string {
		parts := make([]string, 0, len(sets))
		for _, s := range sets {
			a, _ := lat.Phi(s)
			parts = append(parts, a.Name())
		}
		return strings.Join(parts, ", ")
	}
	level := describe(checker.Current())
	for i := 0; i < ops; i++ {
		// Environment events (Section 2.3): crashes, partitions, repair.
		switch {
		case g.Bool(pCrash):
			s := g.Intn(sites)
			c.Crash(s)
			counts.Add("event:crash", 1)
			fmt.Fprintf(w, "  !! site %d crashes\n", s)
		case g.Bool(pPartition):
			cut := 1 + g.Intn(sites-1)
			var left, right []int
			for s := 0; s < sites; s++ {
				if s < cut {
					left = append(left, s)
				} else {
					right = append(right, s)
				}
			}
			c.Partition(left, right)
			counts.Add("event:partition", 1)
			fmt.Fprintf(w, "  !! network splits %v | %v\n", left, right)
		case g.Bool(pRepair):
			for s := 0; s < sites; s++ {
				c.Restore(s)
			}
			c.Heal()
			c.Gossip()
			counts.Add("event:repair", 1)
			fmt.Fprintln(w, "  !! repair: all sites restored, logs gossiped")
		}

		cl := c.Client(g.Intn(sites))
		cl.Degrade = degrade
		var op history.Op
		var err error
		if g.Bool(0.55) {
			prio := 1 + g.Intn(9)
			op, err = cl.Execute(history.EnqInv(prio))
		} else {
			op, err = cl.Execute(history.DeqInv())
		}
		report(counts, op, err)
		// Live degradation alarm: the checker tracks, operation by
		// operation, the strongest behaviors consistent with what has
		// been observed.
		if err == nil {
			checker.Step(op)
			if now := describe(checker.Current()); now != level {
				fmt.Fprintf(w, "  >> degradation alarm after op %d: behavior now %s\n", checker.Len(), now)
				level = now
			}
		}
	}

	fmt.Fprintln(w, "\noutcome counts:")
	for _, name := range counts.Names() {
		fmt.Fprintf(w, "  %-18s %d\n", name, counts.Get(name))
	}

	obs := c.Observed()
	fmt.Fprintf(w, "\nobserved history (%d ops): %v\n", len(obs), obs)
	fmt.Fprintln(w, "\ndegradation audit against the taxi lattice:")

	sets, accepted := lat.WeakestAccepting(obs)
	if !accepted {
		fmt.Fprintln(w, "  history outside the lattice (should not happen)")
		return nil
	}
	for _, s := range sets {
		a, _ := lat.Phi(s)
		fmt.Fprintf(w, "  strongest surviving constraints %s → behaves as %s\n", lat.Universe.Format(s), a.Name())
	}
	for _, pair := range []struct {
		name string
		a    automaton.Automaton
	}{
		{"PQueue (preferred)", specs.PriorityQueue()},
		{"MPQueue (Q2 relaxed)", specs.MultiPriorityQueue()},
		{"OPQueue (Q1 relaxed)", specs.OutOfOrderQueue()},
		{"DegenPQueue (both relaxed)", specs.DegeneratePriorityQueue()},
	} {
		fmt.Fprintf(w, "  accepted by %-28s %v\n", pair.name+":", automaton.Accepts(pair.a, obs))
	}
	return nil
}

// runAdaptive drives one adaptive client through a stochastic fault
// regime on a discrete-event engine and audits the outcome.
func runAdaptive(w io.Writer, sites, ops int, seed int64, faultCfg cluster.FaultConfig, horizon float64, onlineCheck bool) error {
	if err := checkSites(sites); err != nil {
		return err
	}
	opts := resilience.DefaultOptions()
	fmt.Fprintf(w, "adaptive taxi queue: %d sites, ladder Q1Q2 → Q1 → none, %d ops, horizon %.0f\n", sites, ops, horizon)
	fmt.Fprintf(w, "faults until t=%.0f: MTTF=%g MTTR=%g MTBP=%g dwell=%g\n\n",
		horizon/2, faultCfg.MTTF, faultCfg.MTTR, faultCfg.MTBP, faultCfg.PartitionDwell)
	lat := core.TaxiSimpleLattice()
	ladder := cluster.TaxiLadder(sites)
	var checker *relaxcheck.Checker
	ccfg := cluster.Config{
		Sites:   sites,
		Quorums: quorum.TaxiAssignments(sites)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
	}
	if onlineCheck {
		checker = relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe)})
		ccfg.Audit = checker
	}
	c := cluster.New(ccfg)
	if checker != nil {
		// The client starts on the top rung; the claim makes the
		// pre-descent phase checked rather than vacuous.
		checker.ObserveClaim(-1, ladder[0].Name)
	}
	g := sim.NewRNG(seed)
	var engine sim.Engine
	a := c.Adaptive(0, ladder, opts, &engine, g.Split())
	faults := cluster.NewFaultProcess(c, &engine, g.Split(), faultCfg)
	faults.Start()
	engine.At(horizon/2, faults.Stop)

	counts := sim.NewCounter()
	var latency sim.Histogram
	at := 0.0
	for i := 0; i < ops; i++ {
		at += g.Exp(horizon / 2 / float64(ops+1))
		inv := history.DeqInv()
		if i%3 != 2 {
			inv = history.EnqInv(1 + g.Intn(9))
		}
		engine.At(at, func() {
			from := a.Current().Name
			a.Submit(inv, func(op history.Op, out resilience.Outcome) {
				latency.Observe(out.Elapsed)
				if out.Err == nil {
					counts.Add("ok:"+op.Name, 1)
				} else {
					counts.Add("failed:"+out.Reason, 1)
				}
				if out.Attempts > 1 {
					counts.Add("retries", out.Attempts-1)
				}
				if now := a.Current().Name; now != from {
					fmt.Fprintf(w, "  >> %s: controller moved %s → %s (attempts=%d)\n", inv.Name, from, now, out.Attempts)
				}
			})
		})
	}
	engine.Run(horizon)

	fmt.Fprintf(w, "\n%s\n", faults)
	fmt.Fprintln(w, "outcome counts:")
	for _, name := range counts.Names() {
		fmt.Fprintf(w, "  %-18s %d\n", name, counts.Get(name))
	}
	fmt.Fprintf(w, "mean latency %.2f, p95 %.2f (sim time)\n", latency.Mean(), latency.Quantile(0.95))
	ctrl := a.Controller()
	fmt.Fprintf(w, "\ncontroller: level=%s floor=%s descents=%d ascents=%d\n",
		a.Current().Name, a.Floor().Name, ctrl.Descents(), ctrl.Ascents())
	for _, tr := range ctrl.Transitions() {
		fmt.Fprintf(w, "  %-8s %s → %s\n", tr.Reason, ladder[tr.From].Name, ladder[tr.To].Name)
	}
	if a.Current().Name != ladder[0].Name {
		fmt.Fprintln(w, "  !! not back at the top rung by the horizon")
	}

	obs := c.Observed()
	fmt.Fprintf(w, "\nobserved history (%d ops); audit against the taxi lattice:\n", len(obs))
	sets, accepted := lat.WeakestAccepting(obs)
	if !accepted {
		fmt.Fprintln(w, "  history outside the lattice (should not happen)")
		return nil
	}
	for _, s := range sets {
		au, _ := lat.Phi(s)
		fmt.Fprintf(w, "  strongest surviving constraints %s → behaves as %s\n", lat.Universe.Format(s), au.Name())
	}
	claims := map[string]lattice.Set{"Q1Q2": lat.Universe.All(), "Q1": lat.Universe.Named(core.ConstraintQ1), "none": 0}
	claimed := claims[a.Floor().Name]
	sound := false
	for _, s := range sets {
		if claimed.SubsetOf(s) {
			sound = true
		}
	}
	fmt.Fprintf(w, "  claimed floor %s is sound (history at least that good): %v\n", a.Floor().Name, sound)
	if checker != nil {
		fmt.Fprintf(w, "\nonline checker: steps=%d level=%s floor=%s frontier=%d\n",
			checker.Steps(), checker.Level(), checker.FloorClaim(), checker.MaxFrontier())
		if v := checker.Violation(); v != nil {
			fmt.Fprintf(w, "  !! live violation: %v\n", v)
		}
		online := checker.Current()
		agree := len(online) == len(sets)
		for i := range online {
			if !agree || online[i] != sets[i] {
				agree = false
			}
		}
		fmt.Fprintf(w, "  online verdict equals the offline audit: %v\n", agree)
	}
	return nil
}

func report(counts *sim.Counter, op history.Op, err error) {
	switch {
	case err == nil:
		counts.Add("ok:"+op.Name, 1)
	default:
		counts.Add("unavailable", 1)
	}
}
