package quorum

// Assignment abstracts a quorum assignment: something that can say
// whether a set of alive sites contains the quorums an operation needs,
// and whether its quorums meet another assignment's. Voting (Gifford
// weighted voting) and ExplicitAssignment (arbitrary quorum structures,
// e.g. grids) both implement it; the cluster substrate accepts any
// Assignment.
type Assignment interface {
	// Sites returns the number of replica sites the assignment covers.
	Sites() int
	// HasQuorum reports whether the alive sites contain both an initial
	// and a final quorum for op.
	HasQuorum(op string, alive []bool) bool
	// Ops returns the operation names the assignment covers, sorted.
	// The observability layer renders "the current constraint set" of a
	// degradation episode by evaluating HasQuorum over exactly these.
	Ops() []string
	// meets reports whether every initial quorum for inv here meets
	// every final quorum for op under b. It is false when a side has no
	// quorums for its operation, or when b is of another kind or over
	// other weights or sites (sound, not tight).
	meets(inv string, b Assignment, op string) bool
}

var (
	_ Assignment = (*Voting)(nil)
	_ Assignment = (*ExplicitAssignment)(nil)
)

// Joint returns the quorum intersection relation that the assignments
// realize together: inv(p) Q q iff every initial quorum for p under
// each assignment meets every final quorum for q under each assignment
// (Section 3.1). One assignment gives what it realizes alone; several
// give what holds while clients run them side by side, as clients at
// different rungs of a degradation ladder do.
func Joint(as ...Assignment) Relation {
	ops := map[string]bool{}
	for _, a := range as {
		for _, op := range a.Ops() {
			ops[op] = true
		}
	}
	rel := NewRelation()
	for inv := range ops {
	next:
		for op := range ops {
			for _, a := range as {
				for _, b := range as {
					if !a.meets(inv, b, op) {
						continue next
					}
				}
			}
			rel.pairs[Pair{Inv: inv, Op: op}] = true
		}
	}
	return rel
}
