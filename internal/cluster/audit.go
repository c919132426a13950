package cluster

import "relaxlattice/internal/history"

// Audit observes the cluster's observation path: every completed
// operation execution, in the real-time completion order of
// Observed(). An online relaxation checker (internal/relaxcheck)
// implements this to track, live, where the observed history sits in
// the relaxation lattice — failing a soak run the moment a prefix
// escapes the claimed level, instead of discovering it in a post-hoc
// WeakestAccepting audit.
//
// ObserveOp is called under the cluster's mutex at a deterministic
// point of the protocol, so an audit sees exactly the Observed()
// history, one operation at a time, with no gaps or reorderings. An
// implementation must be fast, must not block, and must not call back
// into the cluster (deadlock).
type Audit interface {
	ObserveOp(op history.Op)
}

// ClaimObserver is an optional extension of Audit: an audit that also
// implements it is told about every degradation-ladder move an
// adaptive client makes, as a claim "my history from here on is
// explained by this lattice level". The checker cross-checks each
// claim against the observed history's actual lattice position — the
// online form of the claimed-floor soundness audit in X05.
//
// ObserveClaim is called outside the cluster mutex, synchronously as
// soon as the controller reports a move (descend or ascend), before
// the episode event for the move is recorded.
type ClaimObserver interface {
	ObserveClaim(client int, level string)
}

// observeClaim forwards an adaptive client's ladder move to the
// configured audit, when it wants claims.
func (c *Cluster) observeClaim(cl *Client, level string) {
	if co, ok := c.cfg.Audit.(ClaimObserver); ok {
		co.ObserveClaim(cl.id, level)
	}
}
