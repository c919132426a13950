package experiments

import (
	"fmt"
	"io"

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

func init() {
	register(Experiment{
		ID:    "X05",
		Title: "Extension — adaptive degradation: retry/backoff clients tracking fault regimes through the lattice",
		Paper: "Section 3.3 (graceful degradation as movement in the relaxation lattice, made adaptive and audited post hoc)",
		Run:   runResilience,
	})
}

// faultRegime is one MTTF/MTBP operating point of the sweep.
type faultRegime struct {
	name   string
	faults cluster.FaultConfig
}

// runResilience sweeps adaptive clients across fault regimes. Each
// regime runs the same seeded workload on a taxi cluster whose clients
// carry a retry/backoff policy and a degradation controller over the
// ladder Q1Q2 → Q1 → none: repeated unavailability walks a client down
// the ladder, a periodic probe walks it back up once quorums answer
// again. Faults stop mid-run, so every regime also measures recovery:
// by the horizon all clients must be back at the top rung. The
// availability/latency trade-off appears as completion rate versus
// attempts and time spent per submission; the degradation claim (each
// client's ladder floor) is audited post hoc with WeakestAccepting
// over the observed history.
func runResilience(w io.Writer, cfg Config) error {
	const (
		clients     = 3
		perClient   = 60
		arrivalMean = 0.6
		faultsEnd   = 150.0
		horizon     = 400.0
	)
	regimes := []faultRegime{
		{"calm", cluster.FaultConfig{}},
		{"moderate", cluster.FaultConfig{MTTF: 60, MTTR: 8, MTBP: 150, PartitionDwell: 12}},
		{"harsh", cluster.FaultConfig{MTTF: 15, MTTR: 10, MTBP: 40, PartitionDwell: 15}},
	}
	lat := core.TaxiSimpleLattice()
	claims := relaxcheck.TaxiRungLevels(lat.Universe, quorum.TaxiAssignments(cfg.Sites))

	fmt.Fprintf(w, "policy: attempts≤%d backoff=%g..%g ×2 jitter=%g; controller: descend@%d ascend@%d probe=%d hedge=%d\n",
		resilience.MaxAttempts, resilience.BaseBackoff, resilience.BaseBackoff*(1<<(resilience.MaxAttempts-2)),
		resilience.Jitter, resilience.DescendAfter, resilience.AscendAfter, cluster.ProbeEvery, resilience.Hedge)
	fmt.Fprintf(w, "workload: %d clients × %d ops, Poisson arrivals (mean %.1f); faults stop at t=%.0f, horizon t=%.0f\n\n",
		clients, perClient, arrivalMean, faultsEnd, horizon)

	t := sim.NewTable("regime", "completed", "failed", "completion", "retries", "mean attempts",
		"mean latency", "p95 latency", "descents", "ascents", "floor")
	type audit struct {
		regime    string
		floor     string
		recovered bool
		weakest   []lattice.Set
		sound     bool
	}
	audits := make([]audit, 0, len(regimes))

	for _, reg := range regimes {
		g := sim.NewRNG(cfg.Seed + int64(len(reg.name))) // distinct, seed-derived stream per regime
		c := cluster.New(cluster.Config{
			Sites:   cfg.Sites,
			Quorums: quorum.TaxiAssignments(cfg.Sites)["Q1Q2"],
			Base:    specs.PriorityQueue(),
			Fold:    quorum.PQFold(),
			Respond: cluster.PQResponder,
			Metrics: cfg.Metrics,
			Trace:   cfg.Trace,
		})
		var engine sim.Engine
		ladder := cluster.TaxiLadder(cfg.Sites)
		adaptives := make([]*cluster.AdaptiveClient, clients)
		for i := range adaptives {
			adaptives[i] = c.Adaptive(i%cfg.Sites, ladder, &engine, g.Split())
		}
		faults := cluster.NewFaultProcess(c, &engine, g.Split(), reg.faults)
		faults.Start()
		engine.At(faultsEnd, faults.Stop)

		completed, failed, retries := 0, 0, 0
		var latency, attempts sim.Histogram
		at := 0.0
		for i := 0; i < clients*perClient; i++ {
			at += g.Exp(arrivalMean)
			a := adaptives[i%clients]
			enq := i%3 != 2 // 2:1 enqueue:dequeue keeps the queue non-empty
			val := 1 + g.Intn(9)
			engine.At(at, func() {
				inv := history.DeqInv()
				if enq {
					inv = history.EnqInv(val)
				}
				a.Submit(inv, func(_ history.Op, out resilience.Outcome) {
					if out.Err == nil {
						completed++
					} else {
						failed++
					}
					retries += out.Attempts - 1
					attempts.Observe(float64(out.Attempts))
					latency.Observe(out.Elapsed)
				})
			})
		}
		engine.Run(horizon)

		descents, ascents := 0, 0
		floorIdx := 0
		recovered := true
		for _, a := range adaptives {
			descents += a.Controller().Descents()
			ascents += a.Controller().Ascents()
			if a.Controller().Floor() > floorIdx {
				floorIdx = a.Controller().Floor()
			}
			if a.Current().Name != ladder[0].Name {
				recovered = false
			}
		}
		floor := ladder[floorIdx].Name
		total := completed + failed
		t.AddRow(reg.name, completed, failed,
			fmt.Sprintf("%.3f", float64(completed)/float64(total)),
			retries, fmt.Sprintf("%.2f", attempts.Mean()),
			fmt.Sprintf("%.2f", latency.Mean()), fmt.Sprintf("%.2f", latency.Quantile(0.95)),
			descents, ascents, floor)

		weakest, ok := lat.WeakestAccepting(c.Observed())
		if !ok {
			return fmt.Errorf("regime %s: observed history rejected by the whole lattice", reg.name)
		}
		claimed := claims[floor]
		sound := false
		for _, s := range weakest {
			if claimed.SubsetOf(s) {
				sound = true
			}
		}
		audits = append(audits, audit{reg.name, floor, recovered, weakest, sound})
	}
	t.Render(w)

	fmt.Fprintln(w)
	allRecovered, allSound := true, true
	for _, a := range audits {
		names := make([]string, len(a.weakest))
		for i, s := range a.weakest {
			names[i] = lat.Universe.Format(s)
		}
		fmt.Fprintf(w, "%-8s floor=%-4s audit: WeakestAccepting=%v claim-sound=%s recovered-to-top=%s\n",
			a.regime, a.floor, names, verdict(a.sound), verdict(a.recovered))
		allRecovered = allRecovered && a.recovered
		allSound = allSound && a.sound
	}
	calm := audits[0]
	fmt.Fprintf(w, "\ncalm regime never leaves the top (floor=%s): %s\n", calm.floor, verdict(calm.floor == "Q1Q2"))
	fmt.Fprintf(w, "every claimed floor accepts its observed history: %s\n", verdict(allSound))
	fmt.Fprintf(w, "all clients back at the top rung after faults heal: %s\n", verdict(allRecovered))
	if !allSound || !allRecovered || calm.floor != "Q1Q2" {
		return fmt.Errorf("adaptive degradation claims failed (sound=%v recovered=%v calm=%s)", allSound, allRecovered, calm.floor)
	}
	return nil
}
