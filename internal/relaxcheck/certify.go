package relaxcheck

import (
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
)

// Certify judges a complete history the way a fresh online checker
// would — the one-shot form of the audit, used to certify recovered
// state: after a crash-restart, the durable logs' history must still
// land inside the level the service claims. rung, when non-empty, is
// registered as a standing claim (from Options.Claims, which defaults
// to TaxiClaims over lat's universe) before the first operation, so
// the whole history is held to that rung's constraint set; an empty
// rung checks only that the history stays inside the lattice at all.
// It returns the first violation, or nil when the history certifies.
//
// The verdict depends only on the claim's up-set, so only that is
// stepped (DESIGN.md §11): the claim stays covered on every prefix
// exactly while some element containing it is viable, and elements
// die permanently. A history that certifies is accepted once the
// whole of it is consumed with one of them alive. Only when none
// survives is the prefix up to the operation that killed the last one
// replayed through New's full checker, to describe the refusal exactly
// as the live audit would.
func Certify(lat *lattice.Relaxation, claims map[string]lattice.Set, rung string, h history.History) *Violation {
	if claims == nil {
		claims = TaxiClaims(lat.Universe)
	}
	var floor lattice.Set
	if rung != "" {
		set, ok := claims[rung]
		if !ok {
			panic(fmt.Sprintf("relaxcheck: claim %q not in Options.Claims", rung))
		}
		floor = set
	}
	sc := lattice.NewUpSetChecker(lat, floor)
	n := 0
	for n < len(h) && sc.Alive() > 0 {
		sc.Step(h[n])
		n++
	}
	if sc.Alive() > 0 {
		return nil
	}
	// The first violation is at step n, or at the claim (step 0) or the
	// first operation when the up-set was empty from the start.
	return replay(lat, claims, rung, h[:min(n+1, len(h))])
}

// replay feeds h through a fresh full checker and returns its first
// violation.
func replay(lat *lattice.Relaxation, claims map[string]lattice.Set, rung string, h history.History) *Violation {
	c := New(lat, Options{Claims: claims})
	if rung != "" {
		c.ObserveClaim(-1, rung)
	}
	for _, op := range h {
		c.ObserveOp(op)
	}
	return c.Violation()
}
