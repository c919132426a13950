package experiments

import (
	"fmt"
	"io"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "X03",
		Title: "Extension — quorum structures: majorities vs grids for the same intersection constraints",
		Paper: "Section 3.1 (quorum assignments determine availability)",
		Run:   runStructures,
	})
}

// runStructures compares two quorum structures that realize the same
// intersection constraints (every initial quorum of every operation
// meets every final quorum): flat majorities over n sites versus
// √n-sized grid quorums. Both support the preferred behavior; they
// price availability and latency (quorum size) differently — the
// paper's point that the constraints, not the mechanism, determine the
// lattice, while the mechanism prices the constraints.
func runStructures(w io.Writer, cfg Config) error {
	const rows, cols = 3, 3
	n := rows * cols
	maj := quorum.Majority(n, history.NameEnq, history.NameDeq)
	grid := quorum.Grid(rows, cols, history.NameEnq, history.NameDeq)

	// Both realize the full intersection relation for {Enq, Deq}.
	full := quorum.Q1().Union(quorum.Q2())
	fmt.Fprintf(w, "majority over %d sites satisfies {Q1,Q2}: %s\n", n, verdict(full.IsSubrelationOf(quorum.Joint(maj))))
	fmt.Fprintf(w, "%dx%d grid satisfies {Q1,Q2}:        %s\n\n", rows, cols, verdict(full.IsSubrelationOf(quorum.Joint(grid))))

	mq, _ := maj.Quorums(history.NameDeq)
	fmt.Fprintf(w, "quorum sizes (latency proxy): majority %d of %d; grid %d (row) / %d (column)\n\n",
		mq.Initial, n, cols, rows)

	t := sim.NewTable("site-up probability", "majority availability", "grid availability")
	for _, pUp := range []float64{0.99, 0.95, 0.9, 0.8, 0.7, 0.5} {
		t.AddRow(pUp,
			maj.Availability(history.NameDeq, pUp),
			grid.Availability(history.NameDeq, pUp))
	}
	t.Render(w)
	fmt.Fprintln(w, "\nthe grid pays smaller quorums (lower latency) with lower availability at")
	fmt.Fprintln(w, "high failure rates; the lattice element — and hence the behavior — is the")
	fmt.Fprintln(w, "same for both, because φ depends only on the intersection constraints.")

	// Monte-Carlo spot check of the analytic numbers.
	g := sim.NewRNG(cfg.Seed)
	trials := cfg.Trials / 10
	if trials < 1000 {
		trials = 1000
	}
	var mr, gr sim.Ratio
	for i := 0; i < trials; i++ {
		alive := make([]bool, n)
		for s := range alive {
			alive[s] = g.Bool(0.9)
		}
		mr.Observe(maj.HasQuorum(history.NameDeq, alive))
		gr.Observe(grid.HasQuorum(history.NameDeq, alive))
	}
	okM := abs(mr.Value()-maj.Availability(history.NameDeq, 0.9)) < 0.01
	okG := abs(gr.Value()-grid.Availability(history.NameDeq, 0.9)) < 0.01
	fmt.Fprintf(w, "Monte-Carlo agreement at pUp=0.9: majority %s, grid %s\n", verdict(okM), verdict(okG))
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
