package automaton_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

// The memoized powerset engine must be byte-for-byte indistinguishable
// from the per-history BFS it replaced: same counts, same verdicts, and
// the same first-found counterexamples and witnesses. These tests
// differential-test it against the retained Naive* oracles over every
// registered specification automaton.

// alphabetFor picks the operation alphabet matching a spec's interface.
func alphabetFor(a automaton.Automaton) []history.Op {
	if sp, ok := a.(*automaton.Spec); ok {
		for _, name := range sp.OpNames() {
			if name == history.NameCredit || name == history.NameDebit {
				return history.AccountAlphabet(2)
			}
		}
	}
	return history.QueueAlphabet(2)
}

// sortedSpecs returns the registered automata in name order.
func sortedSpecs() []automaton.Automaton {
	all := specs.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]automaton.Automaton, len(names))
	for i, name := range names {
		out[i] = all[name]
	}
	return out
}

func TestEngineDeterminismMatchesNaiveAllSpecs(t *testing.T) {
	for _, a := range sortedSpecs() {
		alphabet := alphabetFor(a)
		gotOK, gotWit := automaton.IsDeterministic(a, alphabet, 5)
		wantOK, wantWit := automaton.NaiveIsDeterministic(a, alphabet, 5)
		if gotOK != wantOK || gotWit.String() != wantWit.String() {
			t.Errorf("%s: IsDeterministic = (%v, %v), naive = (%v, %v)",
				a.Name(), gotOK, gotWit, wantOK, wantWit)
		}
	}
}

// compareResultsEqual checks every observable field of a CompareResult.
func compareResultsEqual(got, want automaton.CompareResult) string {
	switch {
	case fmt.Sprint(got.CountA) != fmt.Sprint(want.CountA):
		return fmt.Sprintf("CountA %v != %v", got.CountA, want.CountA)
	case fmt.Sprint(got.CountB) != fmt.Sprint(want.CountB):
		return fmt.Sprintf("CountB %v != %v", got.CountB, want.CountB)
	case got.Equal != want.Equal:
		return fmt.Sprintf("Equal %v != %v", got.Equal, want.Equal)
	case got.Explored != want.Explored:
		return fmt.Sprintf("Explored %d != %d", got.Explored, want.Explored)
	case got.OnlyA.String() != want.OnlyA.String():
		return fmt.Sprintf("OnlyA %v != %v", got.OnlyA, want.OnlyA)
	case got.OnlyB.String() != want.OnlyB.String():
		return fmt.Sprintf("OnlyB %v != %v", got.OnlyB, want.OnlyB)
	}
	return ""
}

// Every ordered pair of same-alphabet specs: the engine's comparison
// must reproduce the naive one exactly, counterexamples included.
func TestEngineCompareMatchesNaiveAllPairs(t *testing.T) {
	list := sortedSpecs()
	for _, a := range list {
		for _, b := range list {
			alphabet := alphabetFor(a)
			if fmt.Sprint(alphabet) != fmt.Sprint(alphabetFor(b)) {
				continue
			}
			got := automaton.Compare(a, b, alphabet, 4)
			want := automaton.NaiveCompare(a, b, alphabet, 4)
			if diff := compareResultsEqual(got, want); diff != "" {
				t.Errorf("Compare(%s, %s): %s", a.Name(), b.Name(), diff)
			}
		}
	}
}

// The engine must also agree on the paper's central comparisons, where
// one side is a compiled quorum consensus automaton.
func TestEngineCompareMatchesNaiveQCA(t *testing.T) {
	alphabet := history.QueueAlphabet(2)
	cases := []struct {
		name string
		rel  quorum.Relation
		rhs  automaton.Automaton
	}{
		{"Q1-vs-MPQ", quorum.Q1(), specs.MultiPriorityQueue()},
		{"Q2-vs-OPQ", quorum.Q2(), specs.OutOfOrderQueue()},
		{"empty-vs-Degen", quorum.NewRelation(), specs.DegeneratePriorityQueue()},
		{"Q1Q2-vs-PQ", quorum.Q1().Union(quorum.Q2()), specs.PriorityQueue()},
		{"Q1-vs-OPQ-counterexample", quorum.Q1(), specs.OutOfOrderQueue()},
	}
	for _, tc := range cases {
		qca := quorum.NewQCA("qca", specs.PriorityQueue(), tc.rel, quorum.PQFold()).Compiled()
		got := automaton.Compare(qca, tc.rhs, alphabet, 6)
		want := automaton.NaiveCompare(qca, tc.rhs, alphabet, 6)
		if diff := compareResultsEqual(got, want); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}
}

// Language (still naive, BFS order) must agree with the engine's counts
// length by length.
func TestLanguageHistogramMatchesEngineCounts(t *testing.T) {
	for _, a := range sortedSpecs() {
		alphabet := alphabetFor(a)
		counts := automaton.Compare(a, a, alphabet, 4).CountA
		histogram := make([]uint64, 5)
		for _, h := range automaton.Language(a, alphabet, 4) {
			histogram[len(h)]++
		}
		if fmt.Sprint(counts) != fmt.Sprint(histogram) {
			t.Errorf("%s: counts %v != Language histogram %v", a.Name(), counts, histogram)
		}
	}
}

// chaosAutomaton accepts every history over any alphabet from a single
// state, so |L| at length l is |alphabet|^l — the cheapest way to drive
// the engine's counters toward overflow.
type chaosAutomaton struct{}

func (chaosAutomaton) Name() string      { return "chaos" }
func (chaosAutomaton) Init() value.Value { return value.EmptyBag() }
func (chaosAutomaton) Step(s value.Value, op history.Op) []value.Value {
	return []value.Value{s}
}

func TestEngineCountOverflowPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected overflow panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "overflow") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	// 4^32 = 2^64 overflows uint64 at depth 32; the class frontier stays
	// a single node, so the run is instant.
	automaton.Compare(chaosAutomaton{}, chaosAutomaton{}, history.QueueAlphabet(2), 32)
}

func TestEngineCountNearOverflowExact(t *testing.T) {
	counts := automaton.Compare(chaosAutomaton{}, chaosAutomaton{}, history.QueueAlphabet(2), 31).CountA
	want := uint64(1) << 62 // 4^31
	if counts[31] != want {
		t.Errorf("counts[31] = %d, want %d", counts[31], want)
	}
}
