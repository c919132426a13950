package quorum

import (
	"sort"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// FoldEval is an evaluation function η: STATE × OP* → 2^STATE (Section
// 3.2), curried at the initial state as in the paper's shorthand
// η(H) = η(s₀, H). An evaluation function must agree with δ* on
// histories in L(A) but may assign application-specific meaning to
// histories outside L(A), which is what lets a relaxed quorum automaton
// interpret the "weakly consistent" views it constructs.
//
// It is held in incremental (fold) form: init is η(Λ) and step maps
// one state of η(G) to its successors under an operation, so that
// η(G·op) = ⋃_{s ∈ η(G)} step(s, op). Every evaluation function in the
// paper is such a fold — it replays a history operation by operation —
// and the fold form is what lets the compiled view automaton
// (viewauto.go) and the engine's view cache extend view evaluations
// incrementally instead of re-replaying each view from scratch.
//
// The compiled automaton additionally requires the fold to be
// state-local: a pair (s ∈ η(G), s' ∈ η(G·op)) satisfying an
// operation's pre/postconditions must be realizable with
// s' ∈ step(s, op). Singleton folds (one state per history, like every
// η in this file) and δ*-folds satisfy this trivially.
type FoldEval struct {
	init []value.Value
	step func(s value.Value, op history.Op) []value.Value
}

// NewFoldEval builds a fold-form evaluation function.
func NewFoldEval(init []value.Value, step func(s value.Value, op history.Op) []value.Value) *FoldEval {
	return &FoldEval{init: init, step: step}
}

// Init returns a copy of η(Λ).
func (f *FoldEval) Init() []value.Value {
	return append([]value.Value(nil), f.init...)
}

// Step returns one state's successors under op.
func (f *FoldEval) Step(s value.Value, op history.Op) []value.Value {
	return f.step(s, op)
}

// Apply maps a whole state set one operation forward, deduplicated by
// canonical key and sorted for determinism. It returns nil when the
// evaluation dies (η undefined on the extended sequence).
func (f *FoldEval) Apply(states []value.Value, op history.Op) []value.Value {
	if len(states) == 1 {
		next := f.step(states[0], op)
		if len(next) == 0 {
			return nil
		}
		if len(next) == 1 {
			return next
		}
	}
	merged := make(map[string]value.Value)
	for _, s := range states {
		for _, s2 := range f.step(s, op) {
			merged[s2.Key()] = s2
		}
	}
	return sortStates(merged)
}

// Eval replays h through the fold: the replay form η(H) derived from
// init and step.
func (f *FoldEval) Eval(h history.History) []value.Value {
	states := f.Init()
	for _, op := range h {
		states = f.Apply(states, op)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

// EvalLog replays a log through the fold in timestamp order without
// materializing the log's history; it is equivalent to
// f.Eval(l.History()) minus the allocation.
func (f *FoldEval) EvalLog(l Log) []value.Value {
	states := f.Init()
	for i := range l.entries {
		states = f.Apply(states, l.entries[i].Op)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

// sortStates flattens a key-indexed state set into canonical order.
func sortStates(m map[string]value.Value) []value.Value {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// DeltaFold is δ* itself as the evaluation function (its step is a's
// own transition function): QCA(A, Q) of Section 3.2 is
// QCA(A, Q, DeltaFold(A)).
func DeltaFold(a automaton.Automaton) *FoldEval {
	return NewFoldEval([]value.Value{a.Init()}, a.Step)
}

// pqStep is one step of η for the replicated priority queue.
func pqStep(s value.Value, op history.Op) []value.Value {
	q, ok := s.(value.Bag)
	if !ok {
		return nil
	}
	switch op.Name {
	case history.NameEnq:
		if len(op.Args) != 1 || op.Term != history.Ok {
			return nil
		}
		return []value.Value{q.Ins(value.Elem(op.Args[0]))}
	case history.NameDeq:
		if len(op.Res) != 1 || op.Term != history.Ok {
			return nil
		}
		return []value.Value{q.Del(value.Elem(op.Res[0]))}
	default:
		return nil
	}
}

var pqFold = NewFoldEval([]value.Value{value.EmptyBag()}, pqStep)

// PQFold is the evaluation function η of Section 3.3 for the replicated
// priority queue, defined for arbitrary sequences of Enq and Deq
// operations:
//
//	η(Λ) = emp
//	η(H · Enq(e)/Ok()) = ins(η(H), e)
//	η(H · Deq()/Ok(e)) = del(η(H), e)
//
// Each driver dequeues the highest-priority request that appears not to
// have been served.
func PQFold() *FoldEval { return pqFold }

// pqPrimeStep is one step of the alternative evaluation function η′.
func pqPrimeStep(s value.Value, op history.Op) []value.Value {
	q, ok := s.(value.Bag)
	if !ok {
		return nil
	}
	switch op.Name {
	case history.NameEnq:
		if len(op.Args) != 1 || op.Term != history.Ok {
			return nil
		}
		return []value.Value{q.Ins(value.Elem(op.Args[0]))}
	case history.NameDeq:
		if len(op.Res) != 1 || op.Term != history.Ok {
			return nil
		}
		e := value.Elem(op.Res[0])
		q = q.Del(e)
		// Drop everything that was skipped over.
		for _, x := range q.Elems() {
			if x > e {
				q = q.Del(x)
			}
		}
		return []value.Value{q}
	default:
		return nil
	}
}

var pqPrimeFold = NewFoldEval([]value.Value{value.EmptyBag()}, pqPrimeStep)

// PQPrimeFold is the alternative evaluation function η′ sketched at the
// end of Section 3.3: it deletes higher-priority requests that were
// skipped over in favor of lower-priority requests, so the resulting
// lattice never services requests out of order but may ignore certain
// requests. Deq()/Ok(e) removes e and every request with priority
// greater than e.
func PQPrimeFold() *FoldEval { return pqPrimeFold }

// fifoStep is one step of η_fifo for the replicated FIFO queue.
func fifoStep(s value.Value, op history.Op) []value.Value {
	q, ok := s.(value.Seq)
	if !ok {
		return nil
	}
	switch op.Name {
	case history.NameEnq:
		if len(op.Args) != 1 || op.Term != history.Ok {
			return nil
		}
		return []value.Value{q.Ins(value.Elem(op.Args[0]))}
	case history.NameDeq:
		if len(op.Res) != 1 || op.Term != history.Ok {
			return nil
		}
		e := value.Elem(op.Res[0])
		for i := 0; i < q.Size(); i++ {
			if q.Get(i) == e {
				q = q.DelAt(i)
				break
			}
		}
		return []value.Value{q}
	default:
		return nil
	}
}

var fifoFold = NewFoldEval([]value.Value{value.EmptySeq()}, fifoStep)

// FIFOFold is the evaluation function η_fifo for a replicated FIFO
// queue (the Section 3.1 motivating example), defined over arbitrary
// Enq/Deq sequences: Enq appends, and Deq()/Ok(e) removes the oldest
// occurrence of e (leaving the queue unchanged when e is absent). It
// agrees with the FIFO queue's δ* on legal FIFO histories.
func FIFOFold() *FoldEval { return fifoFold }

// accountStep is one step of the bank-account evaluation function.
func accountStep(s value.Value, op history.Op) []value.Value {
	acct, ok := s.(value.Account)
	if !ok {
		return nil
	}
	switch {
	case op.Name == history.NameCredit && op.Term == history.Ok && len(op.Args) == 1:
		return []value.Value{value.NewAccount(acct.Balance + op.Args[0])}
	case op.Name == history.NameDebit && op.Term == history.Ok && len(op.Args) == 1:
		return []value.Value{value.NewAccount(acct.Balance - op.Args[0])}
	case op.Name == history.NameDebit && op.Term == history.Over && len(op.Args) == 1:
		return []value.Value{acct} // bounced debits leave the balance unchanged
	default:
		return nil
	}
}

var accountFold = NewFoldEval([]value.Value{value.NewAccount(0)}, accountStep)

// AccountFold is the evaluation function for the replicated bank
// account of Section 3.4, defined over arbitrary Credit/Debit
// sequences: credits add, successful debits subtract, and bounced
// debits leave the balance unchanged.
func AccountFold() *FoldEval { return accountFold }

// EvalLogFrom resumes a log replay: given states = η of the first
// `from` entries of l, it folds the remaining entries and returns η of
// the whole log (nil when the evaluation dies). EvalLogFrom(Init(), l, 0)
// is EvalLog(l); the incremental form is what lets the cluster
// re-evaluate a view that grew by one entry in O(1) fold steps.
func (f *FoldEval) EvalLogFrom(states []value.Value, l Log, from int) []value.Value {
	for i := from; i < len(l.entries); i++ {
		states = f.Apply(states, l.entries[i].Op)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}
