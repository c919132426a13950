// relaxctl is the command-line front end to the relaxation-lattice
// library: it lists and runs the paper's experiments, prints the
// built-in relaxation lattices, verifies the paper's theorems by
// bounded model checking, and audits observed histories against a
// lattice (reporting how far an execution degraded).
//
// Usage:
//
//	relaxctl list
//	relaxctl run [-seed N] [-trials N] [-maxlen N] [-maxelem N] [-sites N] [-workers N] [ID|all]
//	relaxctl lattice [taxi|taxi-prime|fifo|account|account-full|semiqueue|stuttering|combined]
//	relaxctl dot (lattice|automaton) [name]
//	relaxctl verify [-maxlen N] [-maxelem N]
//	relaxctl audit -lattice NAME "Enq(1)/Ok() Deq()/Ok(1) ..."
//	relaxctl census -lattice NAME "HISTORY" "HISTORY" ...
//	relaxctl trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/core"
	"relaxlattice/internal/env"
	"relaxlattice/internal/experiments"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/specs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxctl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usage(w)
	}
	switch args[0] {
	case "list":
		return list(w)
	case "run":
		return runExperiments(args[1:], w)
	case "lattice":
		return printLattice(args[1:], w)
	case "dot":
		return printDOT(args[1:], w)
	case "verify":
		return verify(args[1:], w)
	case "audit":
		return audit(args[1:], w)
	case "trace":
		return trace(args[1:], w)
	case "census":
		return census(args[1:], w)
	case "help", "-h", "--help":
		return usage(w)
	default:
		return fmt.Errorf("unknown command %q (try: relaxctl help)", args[0])
	}
}

func usage(w io.Writer) error {
	fmt.Fprintln(w, `relaxctl — relaxation lattices for graceful degradation (Herlihy & Wing, PODC 1987)

commands:
  list                         list the paper's experiments
  run [flags] [ID|all]         run one experiment or all of them
  lattice [name]               print a built-in relaxation lattice
                               (taxi, taxi-prime, fifo, account, account-full,
                                semiqueue, stuttering, combined)
  dot lattice [name]           emit a lattice Hasse diagram in Graphviz DOT
  dot automaton [name]         emit an automaton state graph in DOT
                               (bag, fifo, pq, mpq, opq, degen, account)
  verify [flags]               bounded model checking of Theorem 4 and
                               companion claims
  audit -lattice NAME HISTORY  report the strongest lattice elements
                               accepting an observed history
  trace                        walk a canned degradation episode through the
                               combined environment x object automaton (§2.3)
  census -lattice NAME H H ..  tally a corpus of observed histories by the
                               strongest lattice element accepting each

flags for run/verify:
  -seed N      random seed (default 1987)
  -trials N    Monte-Carlo trials
  -maxlen N    history length bound
  -maxelem N   element domain bound
  -sites N     replica sites for cluster simulations
  -workers N   (run) experiments run concurrently (0 = GOMAXPROCS,
               1 = serial); output is byte-identical at any count

observability flags (run):
  -metrics F   write the deterministic metrics snapshot (JSON) to F;
               byte-identical across runs and worker counts at a seed
  -trace F     write the logical-clock event journal (JSON Lines) to F;
               same byte-determinism guarantee
  -pprof ADDR  serve net/http/pprof on ADDR; scheduling-dependent
               runtime metrics (view-cache hit rates) appear
               at /debug/vars under "relaxlattice"
  (trace also accepts -trace F to journal its degradation episodes)`)
	return nil
}

func list(w io.Writer) error {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%s  %-90s %s\n", e.ID, e.Title, e.Paper)
	}
	return nil
}

func configFlags(fs *flag.FlagSet) *experiments.Config {
	cfg := experiments.Default()
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "Monte-Carlo trials")
	fs.IntVar(&cfg.Bound.MaxLen, "maxlen", cfg.Bound.MaxLen, "history length bound")
	fs.IntVar(&cfg.Bound.MaxElem, "maxelem", cfg.Bound.MaxElem, "element domain bound")
	fs.IntVar(&cfg.Sites, "sites", cfg.Sites, "replica sites")
	return &cfg
}

// checkBound rejects a model-checking bound that explores nothing:
// below length or domain 1 every claim holds vacuously.
func checkBound(cfg *experiments.Config) error {
	switch {
	case cfg.Bound.MaxLen < 1:
		return fmt.Errorf("-maxlen %d: need a history length of at least 1", cfg.Bound.MaxLen)
	case cfg.Bound.MaxElem < 1:
		return fmt.Errorf("-maxelem %d: need at least 1 element", cfg.Bound.MaxElem)
	}
	return nil
}

func runExperiments(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	cfg := configFlags(fs)
	metricsPath := fs.String("metrics", "", "write the deterministic metrics snapshot (JSON) to this file")
	tracePath := fs.String("trace", "", "write the logical-clock event journal (JSON Lines) to this file")
	workers := fs.Int("workers", 0, "experiments run concurrently (0 = GOMAXPROCS, 1 = serial)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar runtime metrics on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkBound(cfg); err != nil {
		return err
	}
	if cfg.Sites < 3 {
		// The cluster experiments build quorum.TaxiAssignments, which
		// panics below 3 sites.
		return fmt.Errorf("-sites %d: taxi assignments need ≥ 3 sites", cfg.Sites)
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return err
		}
	}
	observing := *metricsPath != "" || *tracePath != ""
	if observing {
		cfg.Metrics = obs.NewRegistry()
		cfg.Trace = obs.NewRecorder()
		// Engine metrics land in the same deterministic registry: they
		// are recorded at per-depth merge points identical for every
		// worker count, and counter/gauge/histogram updates commute, so
		// the snapshot bytes do not depend on experiment interleaving.
		automaton.ObserveEngine(cfg.Metrics)
		defer automaton.ObserveEngine(nil)
	}
	exps := experiments.All()
	if target := fs.Arg(0); target != "" && target != "all" {
		e, ok := experiments.Find(strings.ToUpper(target))
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: relaxctl list)", target)
		}
		exps = []experiments.Experiment{e}
	}
	if err := experiments.Run(w, *cfg, exps, *workers); err != nil {
		return err
	}
	if observing {
		return obs.WriteFiles(*metricsPath, *tracePath, cfg.Metrics, cfg.Trace)
	}
	return nil
}

func lattices() map[string]*lattice.Relaxation {
	return map[string]*lattice.Relaxation{
		"taxi":         core.TaxiLattice(),
		"fifo":         core.FIFOLattice(),
		"taxi-prime":   core.TaxiLatticePrime(),
		"account":      core.AccountLattice(),
		"account-full": core.AccountLatticeUnrestricted(),
		"semiqueue":    core.SemiqueueLattice(3),
		"stuttering":   core.StutteringLattice(3),
		"combined":     core.CombinedSpoolLattice(3),
	}
}

func printLattice(args []string, w io.Writer) error {
	name := "taxi"
	if len(args) > 0 {
		name = args[0]
	}
	lat, ok := lattices()[name]
	if !ok {
		return fmt.Errorf("unknown lattice %q", name)
	}
	fmt.Fprint(w, lat.Hasse())
	fmt.Fprintln(w, "\nconstraints:")
	for i := 0; i < lat.Universe.Len(); i++ {
		c := lat.Universe.Constraint(i)
		fmt.Fprintf(w, "  %-4s %s\n", c.Name, c.Desc)
	}
	return nil
}

// automata returns the automata printable via "dot automaton".
func automata() map[string]automaton.Automaton {
	return map[string]automaton.Automaton{
		"bag":     specs.BagAutomaton(),
		"fifo":    specs.FIFOQueue(),
		"pq":      specs.PriorityQueue(),
		"mpq":     specs.MultiPriorityQueue(),
		"opq":     specs.OutOfOrderQueue(),
		"degen":   specs.DegeneratePriorityQueue(),
		"account": specs.BankAccount(),
	}
}

func printDOT(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("dot needs a kind: lattice or automaton")
	}
	kind := args[0]
	name := ""
	if len(args) > 1 {
		name = args[1]
	}
	switch kind {
	case "lattice":
		if name == "" {
			name = "taxi"
		}
		lat, ok := lattices()[name]
		if !ok {
			return fmt.Errorf("unknown lattice %q", name)
		}
		fmt.Fprint(w, lat.DOT())
		return nil
	case "automaton":
		if name == "" {
			name = "fifo"
		}
		a, ok := automata()[name]
		if !ok {
			return fmt.Errorf("unknown automaton %q", name)
		}
		alphabet := history.QueueAlphabet(2)
		if name == "account" {
			alphabet = history.AccountAlphabet(2)
		}
		fmt.Fprint(w, automaton.DOT(a, alphabet, 3))
		return nil
	default:
		return fmt.Errorf("unknown dot kind %q", kind)
	}
}

func verify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	cfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkBound(cfg); err != nil {
		return err
	}
	failed := false
	for _, r := range core.CheckAllTaxiEquivalences(cfg.Bound) {
		status := "HOLDS"
		if !r.Holds() {
			status = "FAILS"
			failed = true
		}
		fmt.Fprintf(w, "%-26s L(%s) = L(%s): %s (explored %d histories to length %d)\n",
			r.Name+":", r.LHS, r.RHS, status, r.Compare.Explored, r.Compare.MaxLen)
		if !r.Holds() {
			fmt.Fprintf(w, "  counterexamples: onlyLHS=%v onlyRHS=%v\n", r.Compare.OnlyA, r.Compare.OnlyB)
		}
	}
	for _, r := range core.CheckAccountClaims(cfg.Bound) {
		status := "HOLDS"
		if !r.Holds() {
			status = "FAILS"
			failed = true
		}
		fmt.Fprintf(w, "%-26s L(%s) = L(%s): %s\n", r.Name+":", r.LHS, r.RHS, status)
	}
	for _, r := range core.CheckFIFOFamily(cfg.Bound) {
		status := "HOLDS"
		if !r.Holds() {
			status = "FAILS"
			failed = true
		}
		fmt.Fprintf(w, "%-26s L(%s) = L(%s): %s\n", r.Name+":", r.LHS, r.RHS, status)
	}
	if failed {
		return fmt.Errorf("some claims failed")
	}
	return nil
}

// trace demonstrates the combined automaton of Section 2.3: a crash
// event relaxes a constraint mid-run, the behavior degrades, and a
// repair restores it. With -trace FILE it also journals the degradation
// episodes as JSON Lines (one "env.episode" event per constraint run).
func trace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "write the episode journal (JSON Lines) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u := lattice.NewUniverse(
		lattice.Constraint{Name: "J", Desc: "no duplicate returns"},
		lattice.Constraint{Name: "K", Desc: "no out-of-order returns"},
	)
	lat := &lattice.Relaxation{
		Name:     "traced-queue",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			j, k := 2, 2
			if s.Has(u.Index("J")) {
				j = 1
			}
			if s.Has(u.Index("K")) {
				k = 1
			}
			return specs.SSQueue(j, k), true
		},
	}
	crash := env.Event{Name: "crash(S2)"}
	repair := env.Event{Name: "repair"}
	environment := &env.Environment{
		Init: u.All(),
		Delta: func(c lattice.Set, ev env.Event) lattice.Set {
			switch ev.Name {
			case "crash(S2)":
				return c.Without(u.Index("J"))
			case "repair":
				return u.All()
			default:
				return c
			}
		},
	}
	cm := &env.Combined{Env: environment, Lat: lat}
	op := func(o history.Op) env.Input { return env.Input{Op: &o} }
	inputs := []env.Input{
		op(history.Enq(1)),
		op(history.DeqOk(1)),
		op(history.DeqOk(1)), // rejected at the top: no duplicates
		env.EventInput(crash),
		op(history.Enq(2)),
		op(history.DeqOk(2)),
		op(history.DeqOk(2)), // tolerated while J is lost
		env.EventInput(repair),
		op(history.Enq(3)),
		op(history.DeqOk(3)),
		op(history.DeqOk(3)), // rejected again after repair
	}
	steps := cm.Trace(inputs)
	fmt.Fprint(w, env.FormatTrace(u, steps))
	fmt.Fprintln(w, "\nepisodes:")
	for _, ep := range env.Episodes(steps) {
		a, _ := lat.Phi(ep.C)
		fmt.Fprintf(w, "  steps %2d..%2d  %-8s → %s\n", ep.From, ep.To, u.Format(ep.C), a.Name())
	}
	if *tracePath != "" {
		rec := obs.NewRecorder()
		env.RecordEpisodes(rec, u, lat, steps)
		return obs.WriteFiles("", *tracePath, nil, rec)
	}
	return nil
}

// census tallies a corpus of histories by lattice element.
func census(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("census", flag.ContinueOnError)
	name := fs.String("lattice", "taxi", "lattice to audit against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("census needs histories, e.g. %q", "Enq(1)/Ok() Deq()/Ok(1)")
	}
	lat, ok := lattices()[*name]
	if !ok {
		return fmt.Errorf("unknown lattice %q", *name)
	}
	var corpus []history.History
	for _, arg := range fs.Args() {
		h, err := history.Parse(arg)
		if err != nil {
			return err
		}
		corpus = append(corpus, h)
	}
	counts, rejected := lattice.Census(lat, corpus)
	for _, s := range lat.Universe.SubsetsBySize() {
		n, ok := counts[s]
		if !ok {
			continue
		}
		a, phiOK := lat.Phi(s)
		if !phiOK {
			continue
		}
		fmt.Fprintf(w, "%4d  %-10s %s\n", n, lat.Universe.Format(s), a.Name())
	}
	if rejected > 0 {
		fmt.Fprintf(w, "%4d  outside the lattice\n", rejected)
	}
	return nil
}

func audit(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	name := fs.String("lattice", "taxi", "lattice to audit against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("audit needs a history, e.g. %q", "Enq(1)/Ok() Deq()/Ok(1)")
	}
	lat, ok := lattices()[*name]
	if !ok {
		return fmt.Errorf("unknown lattice %q", *name)
	}
	h, err := history.Parse(strings.Join(fs.Args(), " "))
	if err != nil {
		return err
	}
	sets, accepted := lat.WeakestAccepting(h)
	if !accepted {
		fmt.Fprintf(w, "history %v is not accepted anywhere in %s\n", h, lat.Name)
		return nil
	}
	fmt.Fprintf(w, "history %v degrades %s to:\n", h, lat.Name)
	for _, s := range sets {
		a, _ := lat.Phi(s)
		fmt.Fprintf(w, "  %s → %s\n", lat.Universe.Format(s), a.Name())
	}
	return nil
}
