package quorum

import (
	"fmt"
	"sort"

	"relaxlattice/internal/history"
)

// OpQuorums gives the weighted-voting thresholds for one operation
// (Gifford 1979): an initial quorum is any site set whose weights sum
// to at least Initial, and a final quorum any set summing to at least
// Final.
type OpQuorums struct {
	Initial int
	Final   int
}

// Voting is a weighted-voting quorum assignment: per-site vote weights
// and per-operation thresholds. It determines which quorum intersection
// constraints hold (Section 3.1) and the availability of each
// operation under independent site failures.
type Voting struct {
	weights []int
	total   int
	ops     map[string]OpQuorums
}

// NewVoting builds a voting assignment. It panics on non-positive
// weights or thresholds outside (0, total] (configuration errors).
func NewVoting(weights []int, ops map[string]OpQuorums) *Voting {
	total := 0
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("quorum: site %d has non-positive weight %d", i, w))
		}
		total += w
	}
	for name, q := range ops {
		if q.Initial <= 0 || q.Initial > total || q.Final <= 0 || q.Final > total {
			panic(fmt.Sprintf("quorum: operation %q thresholds %+v outside (0, %d]", name, q, total))
		}
	}
	copied := make(map[string]OpQuorums, len(ops))
	for k, v := range ops {
		copied[k] = v
	}
	return &Voting{weights: append([]int(nil), weights...), total: total, ops: copied}
}

// Majority returns a uniform-weight assignment over n sites where every
// operation listed needs a majority for both initial and final quorums.
func Majority(n int, opNames ...string) *Voting {
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	maj := n/2 + 1
	ops := make(map[string]OpQuorums, len(opNames))
	for _, name := range opNames {
		ops[name] = OpQuorums{Initial: maj, Final: maj}
	}
	return NewVoting(weights, ops)
}

// Sites returns the number of sites.
func (v *Voting) Sites() int { return len(v.weights) }

// Ops returns the operation names with assigned thresholds, sorted.
func (v *Voting) Ops() []string {
	names := make([]string, 0, len(v.ops))
	for n := range v.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalWeight returns the sum of all vote weights.
//
//lint:ignore unreached quorum arithmetic: relaxcheck's claim-table tests check intersection against it
func (v *Voting) TotalWeight() int { return v.total }

// Quorums returns the thresholds for an operation; ok is false for
// operations without an assignment.
func (v *Voting) Quorums(op string) (OpQuorums, bool) {
	q, ok := v.ops[op]
	return q, ok
}

// Intersects reports whether every initial quorum for invOp intersects
// every final quorum for finalOp: with weighted voting this holds
// exactly when the thresholds sum to more than the total weight.
func (v *Voting) Intersects(invOp, finalOp string) bool {
	qi, ok1 := v.ops[invOp]
	qf, ok2 := v.ops[finalOp]
	if !ok1 || !ok2 {
		return false
	}
	return qi.Initial+qf.Final > v.total
}

// Relation derives the quorum intersection relation Q realized by this
// assignment over the given operation names: inv(p) Q q for every pair
// whose quorums are forced to intersect.
func (v *Voting) Relation() Relation {
	names := make([]string, 0, len(v.ops))
	for n := range v.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	var pairs []Pair
	for _, inv := range names {
		for _, op := range names {
			if v.Intersects(inv, op) {
				pairs = append(pairs, Pair{Inv: inv, Op: op})
			}
		}
	}
	return NewRelation(pairs...)
}

// Satisfies reports whether the assignment realizes (at least) the
// given intersection relation.
func (v *Voting) Satisfies(rel Relation) bool {
	return rel.IsSubrelationOf(v.Relation())
}

// HasQuorum reports whether the alive site set (by index) can form both
// an initial and a final quorum for op.
func (v *Voting) HasQuorum(op string, alive []bool) bool {
	q, ok := v.ops[op]
	if !ok {
		return false
	}
	w := 0
	for i, a := range alive {
		if a && i < len(v.weights) {
			w += v.weights[i]
		}
	}
	need := q.Initial
	if q.Final > need {
		need = q.Final
	}
	return w >= need
}

// Availability returns the exact probability that operation op can
// find both quorums when each site is independently up with probability
// pUp — the analytic side of the availability/consistency trade-off of
// Section 3.1. It runs a dynamic program over achievable alive weights.
func (v *Voting) Availability(op string, pUp float64) float64 {
	q, ok := v.ops[op]
	if !ok {
		return 0
	}
	need := q.Initial
	if q.Final > need {
		need = q.Final
	}
	// dp[w] = probability the alive weight is exactly w.
	dp := make([]float64, v.total+1)
	dp[0] = 1
	for _, w := range v.weights {
		next := make([]float64, v.total+1)
		for sum, p := range dp {
			if p == 0 {
				continue
			}
			next[sum] += p * (1 - pUp)
			next[sum+w] += p * pUp
		}
		dp = next
	}
	avail := 0.0
	for sum := need; sum <= v.total; sum++ {
		avail += dp[sum]
	}
	return avail
}

// TaxiAssignments returns the four voting assignments of the taxi-queue
// relaxation lattice over n sites: one per subset of {Q₁, Q₂}, chosen
// so each assignment realizes exactly the constraints of its lattice
// element. Smaller quorums mean higher availability; the preferred
// assignment pays for Q₁ ∧ Q₂ with majority Deq quorums and
// complementary Enq quorums (Section 3.3).
func TaxiAssignments(n int) map[string]*Voting {
	if n < 3 {
		panic(fmt.Sprintf("quorum: taxi assignments need ≥ 3 sites, got %d", n))
	}
	maj := n/2 + 1
	one := 1
	return map[string]*Voting{
		// Q1 ∧ Q2: Deq reads a majority and writes a majority; Enq
		// writes enough that Deq's initial majority always sees it.
		"Q1Q2": NewVoting(ones(n), map[string]OpQuorums{
			history.NameEnq: {Initial: one, Final: n - maj + 1},
			history.NameDeq: {Initial: maj, Final: maj},
		}),
		// Q1 only: Deq quorums need not intersect one another, so Deq's
		// initial quorum shrinks below a majority (Q2 is what forces
		// Deq majorities); Q1 is preserved by growing Enq's final
		// quorum to compensate.
		"Q1": NewVoting(ones(n), map[string]OpQuorums{
			history.NameEnq: {Initial: one, Final: n - n/2 + 1},
			history.NameDeq: {Initial: n / 2, Final: one},
		}),
		// Q2 only: Deq sees other Deqs but may miss Enqs.
		"Q2": NewVoting(ones(n), map[string]OpQuorums{
			history.NameEnq: {Initial: one, Final: one},
			history.NameDeq: {Initial: maj, Final: maj},
		}),
		// ∅: everything at any available site.
		"none": NewVoting(ones(n), map[string]OpQuorums{
			history.NameEnq: {Initial: one, Final: one},
			history.NameDeq: {Initial: one, Final: one},
		}),
	}
}

func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
