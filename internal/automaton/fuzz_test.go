package automaton_test

import (
	"fmt"
	"testing"

	"relaxlattice/internal/automaton"
)

// FuzzEngineMatchesNaive differentially fuzzes the memoized powerset
// engine against the retained per-history Naive* oracles over every
// pair of registered specification automata: same counts, same
// verdicts, same first-found counterexamples and witnesses. The fuzzer
// picks the pair and the exploration depth; depth is clamped small
// because the naive side is exponential in it.
func FuzzEngineMatchesNaive(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(4))
	f.Add(uint8(3), uint8(3), uint8(5))
	f.Add(uint8(7), uint8(2), uint8(3))
	f.Add(uint8(255), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, ai, bi, depth uint8) {
		list := sortedSpecs()
		a := list[int(ai)%len(list)]
		b := list[int(bi)%len(list)]
		maxLen := int(depth) % 6
		alphabet := alphabetFor(a)
		if fmt.Sprint(alphabet) != fmt.Sprint(alphabetFor(b)) {
			return // incomparable interfaces
		}
		got := automaton.Compare(a, b, alphabet, maxLen)
		want := automaton.NaiveCompare(a, b, alphabet, maxLen)
		if diff := compareResultsEqual(got, want); diff != "" {
			t.Fatalf("Compare(%s, %s, len %d): %s", a.Name(), b.Name(), maxLen, diff)
		}
		gotOK, gotWit := automaton.IsDeterministic(a, alphabet, maxLen)
		wantOK, wantWit := automaton.NaiveIsDeterministic(a, alphabet, maxLen)
		if gotOK != wantOK || gotWit.String() != wantWit.String() {
			t.Fatalf("IsDeterministic(%s, len %d) = (%v, %v), naive (%v, %v)",
				a.Name(), maxLen, gotOK, gotWit, wantOK, wantWit)
		}
	})
}
