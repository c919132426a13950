package automaton

import (
	"math"
	"strings"

	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// This file implements the memoized powerset exploration engine behind
// Compare and IsDeterministic.
//
// For a simple object automaton, acceptance of every extension of a
// history h depends only on the reachable state set δ*(h) — not on h
// itself. Bounded language exploration therefore does not need one
// frontier node per accepted history (|alphabet|^maxLen of them); it can
// partition the histories of each length into equivalence classes by
// their canonical state-set key and carry one node per class with a
// multiplicity count. For the automata in this repository the number of
// distinct classes per depth is small and roughly constant, so the
// exponential frontier collapses to near-linear work in maxLen.
//
// Soundness rests on two facts: languages of simple object automata are
// prefix-closed, and δ* factors through state sets
// (δ*(h·p) = ⋃_{s∈δ*(h)} δ(s, p)), so every history in a class has
// exactly the same accepted extensions. Counts are exact because class
// multiplicities sum the histories merged into the class, with every
// addition overflow-checked.
//
// Counterexamples stay exact too: each class carries the
// lexicographically least history mapping to it (as alphabet indices).
// The frontier is kept in first-discovery order, which by induction is
// the lexicographic order of those representatives, so the first class
// whose membership differs between the two automata yields the same
// counterexample history the per-history BFS would have found.
//
// Each depth is expanded serially, in (parent, op) order, and no map
// iteration order ever escapes, so results are byte-identical at any
// GOMAXPROCS. Concurrency lives above the engine: independent claims
// and whole experiments run in parallel.

// langClass is one equivalence class of same-length histories: all
// histories h with identical (δ*_A(h), δ*_B(h)) state-set pairs.
type langClass struct {
	statesA []value.Value // δ*_A of the class members; nil = rejected by A
	statesB []value.Value // δ*_B likewise (unused in single-automaton mode)
	mult    uint64        // number of histories in the class
	rep     []byte        // alphabet indices of the lexicographically least member
}

// deadKey marks a rejected side in class keys. State keys are printable,
// so the control bytes used here cannot collide with them.
const (
	deadKey     = "\x00"
	setKeySep   = '\x1e'
	sideKeySep  = "\x1f"
	maxAlphabet = 256
	overflowMsg = "automaton: bounded history count overflows uint64"
	alphabetMsg = "automaton: alphabet too large for the exploration engine"
)

// setKey canonically encodes a state set (already deduplicated and
// sorted by stepAll).
func setKey(states []value.Value) string {
	if states == nil {
		return deadKey
	}
	var b strings.Builder
	for i, s := range states {
		if i > 0 {
			b.WriteByte(setKeySep)
		}
		b.WriteString(s.Key())
	}
	return b.String()
}

// addMult is overflow-checked uint64 addition.
func addMult(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		panic(overflowMsg)
	}
	return a + b
}

// repHistory rebuilds a representative history from alphabet indices.
func repHistory(rep []byte, alphabet []history.Op) history.History {
	h := make(history.History, len(rep))
	for i, idx := range rep {
		h[i] = alphabet[idx]
	}
	return h
}

// expandClasses computes the next depth's frontier: every class is
// expanded by every alphabet operation in (parent, op) order, and live
// children are merged by class key in first-discovery order,
// accumulating multiplicities. b may be nil (single-automaton mode).
func expandClasses(a, b Automaton, frontier []langClass, alphabet []history.Op) []langClass {
	index := make(map[string]int, len(frontier)*len(alphabet))
	next := make([]langClass, 0, len(frontier)*len(alphabet))
	updates := 0
	for _, c := range frontier {
		for op := range alphabet {
			var sa, sb []value.Value
			if c.statesA != nil {
				sa = stepAll(a, c.statesA, alphabet[op])
			}
			if b != nil && c.statesB != nil {
				sb = stepAll(b, c.statesB, alphabet[op])
			}
			if sa == nil && sb == nil {
				continue // dead for both; prefix closure prunes the subtree
			}
			updates++
			key := setKey(sa)
			if b != nil {
				key += sideKeySep + setKey(sb)
			}
			if i, ok := index[key]; ok {
				next[i].mult = addMult(next[i].mult, c.mult)
				continue
			}
			rep := make([]byte, len(c.rep)+1)
			copy(rep, c.rep)
			rep[len(c.rep)] = byte(op)
			index[key] = len(next)
			next = append(next, langClass{statesA: sa, statesB: sb, mult: c.mult, rep: rep})
		}
	}
	observeExpand(updates, len(next))
	return next
}

func checkAlphabet(alphabet []history.Op) {
	if len(alphabet) > maxAlphabet {
		panic(alphabetMsg)
	}
}

// Compare explores every history over alphabet of length ≤ maxLen
// accepted by at least one of a, b, and reports per-length counts,
// bounded language equality, and first counterexamples in each
// direction. It runs on the memoized powerset engine (see the package
// comment above) and produces exactly the counts, verdicts, and
// counterexamples of the per-history exploration NaiveCompare.
func Compare(a, b Automaton, alphabet []history.Op, maxLen int) CompareResult {
	checkAlphabet(alphabet)
	res := CompareResult{
		MaxLen: maxLen,
		CountA: make([]uint64, maxLen+1),
		CountB: make([]uint64, maxLen+1),
		Equal:  true,
	}
	frontier := []langClass{{
		statesA: []value.Value{a.Init()},
		statesB: []value.Value{b.Init()},
		mult:    1,
	}}
	res.CountA[0], res.CountB[0] = 1, 1
	res.Explored = 1
	for depth := 1; depth <= maxLen && len(frontier) > 0; depth++ {
		frontier = expandClasses(a, b, frontier, alphabet)
		for _, c := range frontier {
			res.Explored = addMult(res.Explored, c.mult)
			inA, inB := c.statesA != nil, c.statesB != nil
			if inA {
				res.CountA[depth] = addMult(res.CountA[depth], c.mult)
			}
			if inB {
				res.CountB[depth] = addMult(res.CountB[depth], c.mult)
			}
			if inA != inB {
				res.Equal = false
				if inA && res.OnlyA == nil {
					res.OnlyA = repHistory(c.rep, alphabet)
				}
				if inB && res.OnlyB == nil {
					res.OnlyB = repHistory(c.rep, alphabet)
				}
			}
		}
	}
	return res
}

// IsDeterministic reports, by bounded exploration on the powerset
// engine, whether δ*(H) is a singleton for every accepted history H of
// length ≤ maxLen — the property the proof of Theorem 4 uses ("the
// postconditions ... completely determine the new value of the queue").
// It returns a witness history with multiple reachable states when not;
// the witness is the first one the per-history BFS would have found.
//
//lint:ignore unreached Theorem 4 check: quorum's and integration's tests assert determinism with it
func IsDeterministic(a Automaton, alphabet []history.Op, maxLen int) (bool, history.History) {
	checkAlphabet(alphabet)
	frontier := []langClass{{statesA: []value.Value{a.Init()}, mult: 1}}
	for depth := 1; depth <= maxLen && len(frontier) > 0; depth++ {
		frontier = expandClasses(a, nil, frontier, alphabet)
		for _, c := range frontier {
			if len(c.statesA) > 1 {
				return false, repHistory(c.rep, alphabet)
			}
		}
	}
	return true, nil
}
