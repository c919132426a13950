package quorum

import (
	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
)

// DependencyViolation is a counterexample to Definition 3: a history H
// in L(A), a Q-view G of H for operation P, with G·P ∈ L(A) but
// H·P ∉ L(A) — the view justified a response the true state forbids.
type DependencyViolation struct {
	H, G history.History
	P    history.Op
}

// acceptOracle is a bounded acceptance set for one automaton: the
// canonical keys of every accepted history up to a length bound. The
// serial dependency check queries acceptance of h, of every Q-view g of
// h, and of their one-operation extensions; answering those from one
// up-front language enumeration replaces the per-query δ* replays that
// dominated the naive check (each Accepts call replayed a whole
// history, and views are enumerated per (h, p) pair).
type acceptOracle struct {
	// histories is L(A) up to maxLen in BFS order (the enumeration
	// order the naive check used, so first-found violations agree).
	histories []history.History
	accepted  map[string]bool
}

// newAcceptOracle enumerates L(A) once up to maxLen+1: histories up to
// maxLen seed the H loop, and the extra length covers their
// one-operation extensions.
func newAcceptOracle(a automaton.Automaton, alphabet []history.Op, maxLen int) *acceptOracle {
	lang := automaton.Language(a, alphabet, maxLen+1)
	o := &acceptOracle{accepted: make(map[string]bool, len(lang))}
	cut := len(lang)
	for i, h := range lang {
		o.accepted[h.Key()] = true
		if len(h) > maxLen && i < cut {
			cut = i // BFS order: lengths are nondecreasing
		}
	}
	o.histories = lang[:cut]
	return o
}

// accepts reports h ∈ L(A) for histories within the bound.
func (o *acceptOracle) accepts(h history.History) bool {
	return o.accepted[h.Key()]
}

// acceptsExt reports h·p ∈ L(A) without materializing the extension:
// History.Key joins operation strings with a single space.
func (o *acceptOracle) acceptsExt(h history.History, p history.Op) bool {
	if len(h) == 0 {
		return o.accepted[p.String()]
	}
	return o.accepted[h.Key()+" "+p.String()]
}

// check runs the Definition 3 enumeration for one relation against the
// precomputed acceptance set.
func (o *acceptOracle) check(rel Relation, alphabet []history.Op) (bool, *DependencyViolation) {
	var violation *DependencyViolation
	for _, h := range o.histories {
		for _, p := range alphabet {
			if o.acceptsExt(h, p) {
				continue // implication holds trivially
			}
			rel.Views(h, p.Inv(), func(g history.History) bool {
				if !o.accepts(g) {
					return true // Definition 3 quantifies over G ∈ L(A)
				}
				if o.acceptsExt(g, p) {
					violation = &DependencyViolation{H: h, G: g, P: p}
					return false
				}
				return true
			})
			if violation != nil {
				return false, violation
			}
		}
	}
	return true, nil
}

// IsSerialDependency checks, by bounded enumeration, whether Q is a
// serial dependency relation for A (Definition 3): for all histories
// G and H in L(A) such that G is a Q-view of H for p,
// G·p ∈ L(A) ⇒ H·p ∈ L(A). Histories H are enumerated over the
// alphabet up to length maxLen; p ranges over the alphabet. It returns
// the first violation found, if any. Quorum consensus replication
// guarantees one-copy serializability iff Q is a serial dependency
// relation (Section 3.2).
func IsSerialDependency(a automaton.Automaton, rel Relation, alphabet []history.Op, maxLen int) (bool, *DependencyViolation) {
	return newAcceptOracle(a, alphabet, maxLen).check(rel, alphabet)
}

// PairVerdict is one row of a minimality check: whether the relation
// with Dropped removed still is a serial dependency relation.
type PairVerdict struct {
	Dropped     Pair
	StillSerial bool
}

// MinimalityWitness reports whether dropping any single pair from Q
// breaks the serial dependency property — i.e. whether Q is minimal
// (Section 3.2: "no R ⊂ Q guarantees one-copy serializability").
// It returns, per removed pair in Pairs() order, whether the reduced
// relation still is a serial dependency relation (all must be false for
// minimality). The acceptance oracle is shared across the drops, so the
// language is enumerated once rather than once per pair.
func MinimalityWitness(a automaton.Automaton, rel Relation, alphabet []history.Op, maxLen int) []PairVerdict {
	oracle := newAcceptOracle(a, alphabet, maxLen)
	pairs := rel.Pairs()
	out := make([]PairVerdict, 0, len(pairs))
	for _, drop := range pairs {
		var kept []Pair
		for _, p := range pairs {
			if p != drop {
				kept = append(kept, p)
			}
		}
		ok, _ := oracle.check(NewRelation(kept...), alphabet)
		out = append(out, PairVerdict{Dropped: drop, StillSerial: ok})
	}
	return out
}
