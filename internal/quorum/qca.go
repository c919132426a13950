package quorum

import (
	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// HistState is the state of a quorum consensus automaton: "the
// automaton's state is simply the history it has accepted so far"
// (Section 3.2).
type HistState struct {
	H history.History
}

// Key returns the canonical encoding.
func (hs HistState) Key() string { return "H:" + hs.H.Key() }

// String renders the history.
func (hs HistState) String() string { return hs.H.String() }

// QCA is the quorum consensus automaton QCA(A, Q, η) of Section 3.2.
// Its operations are those of the base automaton A; it accepts H·p when
// there exists a Q-view G of H for p, a state s ∈ η(G), and a state
// s' ∈ η(G·p) with p.pre_A(s) ∧ p.post_A(s, s'). With Q a serial
// dependency relation for A and any η (which must agree with δ* on
// L(A)), L(QCA(A,Q,η)) = L(A); weaker Q accept more histories.
type QCA struct {
	name string
	base *automaton.Spec
	rel  Relation
	fold *FoldEval
}

var _ automaton.Automaton = (*QCA)(nil)

// NewQCA builds QCA(base, rel, eta) with eta given in fold form (see
// FoldEval). A nil eta defaults to δ* of base (the two-parameter
// QCA(A, Q) of the paper).
func NewQCA(name string, base *automaton.Spec, rel Relation, eta *FoldEval) *QCA {
	if eta == nil {
		eta = DeltaFold(base)
	}
	return &QCA{name: name, base: base, rel: rel, fold: eta}
}

// Name returns the automaton's name.
func (q *QCA) Name() string { return q.name }

// Init returns the empty-history state.
func (q *QCA) Init() value.Value { return HistState{H: history.Empty} }

// Step accepts op exactly when some Q-view justifies it, moving to the
// extended history.
func (q *QCA) Step(s value.Value, op history.Op) []value.Value {
	hs, ok := s.(HistState)
	if !ok {
		return nil
	}
	if !q.Justified(hs.H, op) {
		return nil
	}
	return []value.Value{HistState{H: hs.H.Append(op)}}
}

// Justified reports whether some Q-view G of h for op satisfies op's
// pre- and postconditions under η: ∃G, ∃s ∈ η(G), ∃s' ∈ η(G·op) with
// pre(s) ∧ post(s, s').
func (q *QCA) Justified(h history.History, op history.Op) bool {
	found := false
	q.rel.Views(h, op.Inv(), func(g history.History) bool {
		before := q.fold.Eval(g)
		if len(before) == 0 {
			return true // keep searching other views
		}
		after := q.fold.Eval(g.Append(op))
		if len(after) == 0 {
			return true
		}
		for _, s := range before {
			if !q.base.PreHolds(s, op) {
				continue
			}
			for _, s2 := range after {
				if q.base.PostHolds(s, op, s2) {
					found = true
					return false // stop enumeration
				}
			}
		}
		return true
	})
	return found
}

// Witness returns a Q-view of h justifying op, if one exists. It is
// useful for explaining why a weakly consistent execution was accepted.
//
//lint:ignore unreached Section 3.2 justification: integration's tests check the witness view of a partitioned run
func (q *QCA) Witness(h history.History, op history.Op) (history.History, bool) {
	var witness history.History
	found := false
	q.rel.Views(h, op.Inv(), func(g history.History) bool {
		before := q.fold.Eval(g)
		after := q.fold.Eval(g.Append(op))
		for _, s := range before {
			if !q.base.PreHolds(s, op) {
				continue
			}
			for _, s2 := range after {
				if q.base.PostHolds(s, op, s2) {
					witness = g
					found = true
					return false
				}
			}
		}
		return true
	})
	return witness, found
}
