package relaxcheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
)

// fullReplay is Certify's previous body: the whole history through a
// checker over every lattice element. Certify must return a Violation
// deep-equal to this oracle's on every input.
func fullReplay(lat *lattice.Relaxation, claims map[string]lattice.Set, rung string, h history.History) *Violation {
	if claims == nil {
		claims = TaxiClaims(lat.Universe)
	}
	c := New(lat, Options{Claims: claims})
	if rung != "" {
		c.ObserveClaim(-1, rung)
	}
	for _, op := range h {
		c.ObserveOp(op)
	}
	return c.Violation()
}

// certifyTarget is one lattice with the claim tables Certify is held
// to over it.
type certifyTarget struct {
	name   string
	lat    *lattice.Relaxation
	tables []map[string]lattice.Set
}

// edgeClaims claims the two ends of 2^C. The spooler lattice leaves ∅
// out of φ's domain (every element still covers it); the taxi lattice
// without ⊤ leaves ⊤ out, so no element covers it and the claim fails
// before the first operation.
func edgeClaims(u *lattice.Universe) map[string]lattice.Set {
	return map[string]lattice.Set{"top": u.All(), "none": 0}
}

// taxiWithoutTop is the taxi lattice with φ undefined at ⊤.
func taxiWithoutTop() *lattice.Relaxation {
	taxi := core.TaxiSimpleLattice()
	return &lattice.Relaxation{
		Name:     "taxi-without-top",
		Universe: taxi.Universe,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			if s == taxi.Universe.All() {
				return nil, false
			}
			return taxi.Phi(s)
		},
	}
}

func certifyTargets() []certifyTarget {
	taxi, partial := core.TaxiSimpleLattice(), taxiWithoutTop()
	spool, opts := spoolOpts()
	return []certifyTarget{
		{"taxi", taxi, []map[string]lattice.Set{
			nil, TaxiClaims(taxi.Universe), TaxiRungLevels(taxi.Universe), edgeClaims(taxi.Universe),
		}},
		{"taxi-without-top", partial, []map[string]lattice.Set{
			TaxiClaims(partial.Universe), TaxiRungLevels(partial.Universe), edgeClaims(partial.Universe),
		}},
		{"spool", spool, []map[string]lattice.Set{
			opts.Claims, TaxiClaims(spool.Universe), edgeClaims(spool.Universe),
		}},
	}
}

// rungsOf returns "" and every rung of a claim table (TaxiClaims for
// nil, Certify's default), in a fixed order.
func rungsOf(lat *lattice.Relaxation, claims map[string]lattice.Set) []string {
	if claims == nil {
		claims = TaxiClaims(lat.Universe)
	}
	rungs := []string{""}
	for r := range claims {
		rungs = append(rungs, r)
	}
	sort.Strings(rungs[1:])
	return rungs
}

// assertCertifyMatchesReplay checks Certify against the full replay on
// every claim table and rung of every target, and returns the verdicts'
// kinds ("" for nil, "@0" marking a claim refused before the first
// operation) so callers can check what the inputs covered.
func assertCertifyMatchesReplay(t *testing.T, h history.History) []string {
	t.Helper()
	var kinds []string
	for _, tg := range certifyTargets() {
		for ti, claims := range tg.tables {
			for _, rung := range rungsOf(tg.lat, claims) {
				got := Certify(tg.lat, claims, rung, h)
				want := fullReplay(tg.lat, claims, rung, h)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s table %d rung %q on %v:\n Certify %+v\n  replay %+v", tg.name, ti, rung, h, got, want)
				}
				kind := ""
				if got != nil {
					kind = got.Kind
				}
				if got != nil && got.Step == 0 {
					kind += "@0"
				}
				kinds = append(kinds, kind)
			}
		}
	}
	return kinds
}

// inject returns h with op inserted before index i (i = len(h) appends).
func inject(h history.History, i int, op history.Op) history.History {
	out := make(history.History, 0, len(h)+1)
	out = append(out, h[:i]...)
	out = append(out, op)
	return append(out, h[i:]...)
}

// spoolHistory is genEvents' operation stream without claims or
// poison: FIFO-ish with out-of-order dequeues that move the level.
func spoolHistory(seed int64, n int) history.History {
	var h history.History
	for _, ev := range genEvents(seed, n) {
		if ev.claim == "" && !ev.op.Equal(history.DeqOk(9999)) {
			h = append(h, ev.op)
		}
	}
	return h
}

// TestCertifyMatchesFullReplay is the deterministic differential: on
// legal histories and on each with one illegal Deq injected at step 1,
// at the last step and at a random step, Certify's verdict deep-equals
// the full replay's for every lattice, claim table and rung.
func TestCertifyMatchesFullReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	legal := []history.History{{}, {history.Enq(1)}}
	for i := 0; i < 4; i++ {
		legal = append(legal, pqHistory(rng, 5+rng.Intn(40)), spoolHistory(int64(i+1), 5+rng.Intn(40)))
	}
	seen := map[string]int{}
	for _, h := range legal {
		cases := []history.History{h}
		// A never-enqueued element escapes every element; a small one
		// may be an inversion that only the stronger elements reject.
		for _, bad := range []history.Op{history.DeqOk(9999), history.DeqOk(1 + rng.Intn(3))} {
			cases = append(cases, inject(h, 0, bad), inject(h, len(h), bad), inject(h, rng.Intn(len(h)+1), bad))
		}
		for _, c := range cases {
			for _, k := range assertCertifyMatchesReplay(t, c) {
				seen[k]++
			}
		}
	}
	for _, k := range []string{"", KindExhausted, KindClaim, KindClaim + "@0"} {
		if seen[k] == 0 {
			t.Errorf("no case produced verdict kind %q (coverage %v)", k, seen)
		}
	}
}

// TestCertifyUnknownRungPanics pins the configuration error Certify
// shares with ObserveClaim, on an empty and a non-empty history.
func TestCertifyUnknownRungPanics(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	for _, h := range []history.History{{}, {history.Enq(1)}} {
		func() {
			defer func() {
				want := fmt.Sprintf("relaxcheck: claim %q not in Options.Claims", "bogus")
				if r := recover(); r != want {
					t.Errorf("Certify with an unknown rung panicked with %v, want %q", r, want)
				}
			}()
			Certify(lat, nil, "bogus", h)
		}()
	}
}

// decodeCertifyInput maps fuzzer bytes onto a history over a
// five-element queue alphabet (so both lattices see inversions, unseen
// elements and empty dequeues), up to 64 operations.
func decodeCertifyInput(data []byte) history.History {
	alphabet := history.QueueAlphabet(5)
	if len(data) > 64 {
		data = data[:64]
	}
	h := make(history.History, 0, len(data))
	for _, b := range data {
		h = append(h, alphabet[int(b)%len(alphabet)])
	}
	return h
}

// FuzzCertifyMatchesReplay is the fuzz face of the differential: on any
// fuzzer-chosen history, legal or not, Certify deep-equals the full
// replay for every lattice, claim table and rung.
func FuzzCertifyMatchesReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5})
	f.Add([]byte{0, 1, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		assertCertifyMatchesReplay(t, decodeCertifyInput(data))
	})
}
