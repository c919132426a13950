package main

import (
	"math/rand"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// The mix is 55 % Enq(1..9) / 45 % Deq, the mix relaxcli and the
// longhaul soak run, dealt in shuffled blocks of mixBlock: every block
// holds exactly deqPerBlock Deqs. The seed still decides the order and
// the priorities, but queue depth after n operations no longer takes a
// random walk from seed to seed, and the cost of folding a view is
// linear in that depth.
const (
	mixBlock    = 20
	deqPerBlock = 9
)

// generator is the seeded invocation stream. The program under test
// sees only what next returns.
type generator struct {
	rng   *rand.Rand
	block [mixBlock]bool // true is a Deq
	pos   int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), pos: mixBlock}
}

func (g *generator) next() history.Invocation {
	if g.pos == mixBlock {
		for i := range g.block {
			g.block[i] = i < deqPerBlock
		}
		g.rng.Shuffle(mixBlock, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	deq := g.block[g.pos]
	g.pos++
	if deq {
		return history.DeqInv()
	}
	return history.EnqInv(g.rng.Intn(9) + 1)
}

// preloadSeed decorrelates a preload history from the measured stream
// of the same run.
func preloadSeed(seed int64) int64 { return seed ^ 0x7072656c6f6164 }

// preloadMixed returns n timestamped entries forming a valid
// priority-queue history drawn from the generator's mix: every Deq
// answers with the element the responder would choose on the state so
// far, and a Deq drawn on an empty queue is redrawn.
func preloadMixed(seed int64, n, clockSite int) []quorum.Entry {
	g := newGenerator(preloadSeed(seed))
	fold := quorum.PQFold()
	state := fold.Init()[0]
	out := make([]quorum.Entry, 0, n)
	for len(out) < n {
		op, ok := cluster.PQResponder(state, g.next())
		if !ok {
			continue
		}
		state = fold.Step(state, op)[0]
		out = append(out, quorum.Entry{TS: quorum.Timestamp{Time: len(out) + 1, Site: clockSite}, Op: op})
	}
	return out
}

// preloadEnq returns n timestamped Enq entries with seeded priorities.
func preloadEnq(seed int64, n, clockSite int) []quorum.Entry {
	rng := rand.New(rand.NewSource(preloadSeed(seed)))
	out := make([]quorum.Entry, n)
	for i := range out {
		out[i] = quorum.Entry{TS: quorum.Timestamp{Time: i + 1, Site: clockSite}, Op: history.Enq(rng.Intn(9) + 1)}
	}
	return out
}
