package automaton

import (
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// CompareResult reports a bounded comparison of two languages: for every
// history over the alphabet up to MaxLen, whether each automaton accepts
// it. Because the languages are prefix-closed, the exploration prunes
// histories rejected by both sides.
type CompareResult struct {
	// MaxLen is the history-length bound of the exploration.
	MaxLen int
	// CountA[l] and CountB[l] are the numbers of accepted histories of
	// length exactly l, for l in 0..MaxLen. Counts are exact uint64
	// values; every accumulation is overflow-checked.
	CountA, CountB []uint64
	// Equal reports L(A) = L(B) restricted to histories ≤ MaxLen.
	Equal bool
	// OnlyA is the first history found in L(A) \ L(B), if any; OnlyB
	// likewise for L(B) \ L(A).
	OnlyA, OnlyB history.History
	// Explored is the total number of histories visited (accepted by at
	// least one side).
	Explored uint64
}

// SubsetAB reports L(A) ⊆ L(B) up to the bound.
func (r CompareResult) SubsetAB() bool { return r.OnlyA == nil }

type exploreNode struct {
	h       history.History
	statesA []value.Value // nil = h ∉ L(A)
	statesB []value.Value // nil = h ∉ L(B)
}

// NaiveCompare is the direct per-history BFS comparison: one frontier
// node per accepted history. It is kept as the differential-test oracle
// for the memoized powerset engine behind Compare (see engine.go) and
// is exponentially slower; production callers should use Compare.
//
//lint:ignore unreached differential oracle: the tests compare Compare against it
func NaiveCompare(a, b Automaton, alphabet []history.Op, maxLen int) CompareResult {
	res := CompareResult{
		MaxLen: maxLen,
		CountA: make([]uint64, maxLen+1),
		CountB: make([]uint64, maxLen+1),
		Equal:  true,
	}
	frontier := []exploreNode{{
		h:       history.Empty,
		statesA: []value.Value{a.Init()},
		statesB: []value.Value{b.Init()},
	}}
	res.CountA[0], res.CountB[0] = 1, 1
	res.Explored = 1
	for depth := 1; depth <= maxLen && len(frontier) > 0; depth++ {
		var next []exploreNode
		for _, node := range frontier {
			for _, op := range alphabet {
				child := exploreNode{h: node.h.Append(op)}
				if node.statesA != nil {
					child.statesA = stepAll(a, node.statesA, op)
				}
				if node.statesB != nil {
					child.statesB = stepAll(b, node.statesB, op)
				}
				inA, inB := child.statesA != nil, child.statesB != nil
				if !inA && !inB {
					continue // dead for both; prefix closure prunes the subtree
				}
				res.Explored++
				if inA {
					res.CountA[depth]++
				}
				if inB {
					res.CountB[depth]++
				}
				if inA != inB {
					res.Equal = false
					if inA && res.OnlyA == nil {
						res.OnlyA = child.h
					}
					if inB && res.OnlyB == nil {
						res.OnlyB = child.h
					}
				}
				next = append(next, child)
			}
		}
		frontier = next
	}
	return res
}

// Language enumerates L(a) restricted to histories of length ≤ maxLen
// over the alphabet. The result preserves BFS order (shorter histories
// first). Intended for small bounds; the language grows exponentially.
func Language(a Automaton, alphabet []history.Op, maxLen int) []history.History {
	type node struct {
		h      history.History
		states []value.Value
	}
	out := []history.History{history.Empty}
	frontier := []node{{h: history.Empty, states: []value.Value{a.Init()}}}
	for depth := 1; depth <= maxLen && len(frontier) > 0; depth++ {
		var next []node
		for _, n := range frontier {
			for _, op := range alphabet {
				states := stepAll(a, n.states, op)
				if states == nil {
					continue
				}
				child := node{h: n.h.Append(op), states: states}
				out = append(out, child.h)
				next = append(next, child)
			}
		}
		frontier = next
	}
	return out
}

// NaiveIsDeterministic is the per-history BFS determinism check, kept
// as the differential-test oracle for IsDeterministic (engine.go).
//
//lint:ignore unreached differential oracle: the tests compare IsDeterministic against it
func NaiveIsDeterministic(a Automaton, alphabet []history.Op, maxLen int) (bool, history.History) {
	type node struct {
		h      history.History
		states []value.Value
	}
	frontier := []node{{h: history.Empty, states: []value.Value{a.Init()}}}
	for depth := 1; depth <= maxLen && len(frontier) > 0; depth++ {
		var next []node
		for _, n := range frontier {
			for _, op := range alphabet {
				states := stepAll(a, n.states, op)
				if states == nil {
					continue
				}
				child := node{h: n.h.Append(op), states: states}
				if len(states) > 1 {
					return false, child.h
				}
				next = append(next, child)
			}
		}
		frontier = next
	}
	return true, nil
}
