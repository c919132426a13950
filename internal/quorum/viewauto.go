package quorum

import (
	"sort"
	"strings"
	"sync"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/value"
)

// This file compiles a quorum consensus automaton into an equivalent
// automaton with bounded state, so the memoized powerset engine
// (automaton/engine.go) can collapse its language exploration.
//
// A QCA's own state is the whole accepted history, which defeats
// memoization: no two histories share a state. But whether an operation
// execution p is justified from H depends only on which η-values the
// Q-views of H for inv(p) can produce — not on H itself. The compiled
// automaton therefore tracks, for every subset S of the relation's
// "left" names (invocation names with outgoing Q-pairs), the view set
//
//	W(H, S) = ⋃ { η(G) : G Q-closed subhistory of H containing every
//	              op of H required by some name in S }.
//
// A Q-view of H for invocation p (Definitions 1 and 2) is exactly a
// member of the S = mask(inv(p)) family, so p is justified iff some
// s ∈ W(H, mask(inv(p))) satisfies p's precondition with a successor
// s' ∈ η-step(s, p) satisfying its postcondition. (This per-state
// justification check matches QCA.Justified for state-local folds; see
// FoldEval.)
//
// The families obey an exact one-step recurrence. A qualifying
// subhistory of H·r either omits r — legal only when no name in S
// requires r, and then it qualifies for (H, S) unchanged — or is G·r
// with G a subhistory of H that is Q-closed, contains r's own required
// ops (Q-closure at r), and contains S's required ops; i.e.
// G qualifies for (H, S ∪ mask(inv(r))). Hence
//
//	W(H·r, S) = [r not required by S] · W(H, S)
//	          ∪ ⋃ { η-step(s, r) : s ∈ W(H, S ∪ mask(inv(r))) }.
//
// The empty subhistory always qualifies for S = ∅, so W(H, ∅) always
// contains η(Λ) and the state never degenerates. The state space is the
// set of family vectors — bounded by the η-value domain, independent of
// history length — and the compiled automaton is deterministic (one
// successor per accepted operation), which is what lets the engine's
// class count stay flat while the QCA's history count grows
// exponentially.

// maxLeftNames bounds the relation's left names: the compiled state
// carries 2^left families.
const maxLeftNames = 16

// famMember is one family member with its canonical key precomputed, so
// carrying a member across steps and rendering family keys never
// re-renders the value.
type famMember struct {
	key string
	st  value.Value
}

// viewState is the compiled automaton's state: fams[S] = W(H, S),
// indexed by bitmask over the sorted left names, each family
// deduplicated and sorted by canonical key.
type viewState struct {
	fams [][]famMember
	key  string
}

// Key returns the canonical encoding (precomputed at construction).
func (v viewState) Key() string { return v.key }

// String renders the full-history family, the one most users care
// about.
func (v viewState) String() string {
	if len(v.fams) == 0 {
		return "views{}"
	}
	full := v.fams[len(v.fams)-1]
	parts := make([]string, len(full))
	for i, m := range full {
		parts[i] = m.st.String()
	}
	return "views{" + strings.Join(parts, ", ") + "}"
}

// famsKey canonically encodes a family vector. Value keys are
// printable, so the control-byte separators cannot collide.
func famsKey(fams [][]famMember) string {
	var b strings.Builder
	b.WriteString("V:")
	for i, fam := range fams {
		if i > 0 {
			b.WriteByte('\x1d')
		}
		for j, m := range fam {
			if j > 0 {
				b.WriteByte('\x1e')
			}
			b.WriteString(m.key)
		}
	}
	return b.String()
}

// sortFamily flattens a key-indexed state set into a canonically
// ordered family.
func sortFamily(m map[string]value.Value) []famMember {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]famMember, len(keys))
	for i, k := range keys {
		out[i] = famMember{key: k, st: m[k]}
	}
	return out
}

// viewAutomaton is the compiled form of a QCA. The configuration is
// immutable after construction; the transposition cache is guarded, so
// concurrent Step calls are safe.
type viewAutomaton struct {
	q    *QCA
	left []string // sorted distinct invocation names with outgoing Q-pairs

	hits, misses *obs.Counter // runtime-only cache stats; nil when unobserved

	mu   sync.Mutex
	succ map[string][]value.Value // guarded by mu; (state key, op) → successor
}

var _ automaton.Automaton = (*viewAutomaton)(nil)

// Compiled returns an automaton accepting exactly L(QCA) whose state is
// the view-family vector described in the file comment, suitable for
// the memoized exploration engine. It shares the QCA's name so compiled
// and direct runs render identically in lattice and experiment output.
func (q *QCA) Compiled() automaton.Automaton {
	var left []string
	for _, p := range q.rel.Pairs() { // sorted by Inv, then Op
		if len(left) == 0 || left[len(left)-1] != p.Inv {
			left = append(left, p.Inv)
		}
	}
	if len(left) > maxLeftNames {
		panic("quorum: relation has too many left names to compile")
	}
	va := &viewAutomaton{q: q, left: left, succ: make(map[string][]value.Value)}
	va.hits, va.misses = viewCacheCounters()
	return va
}

// Name returns the underlying QCA's name.
func (va *viewAutomaton) Name() string { return va.q.name }

// Init returns the empty-history state: every family is η(Λ).
func (va *viewAutomaton) Init() value.Value {
	merged := make(map[string]value.Value)
	for _, s := range va.q.fold.Init() {
		merged[s.Key()] = s
	}
	base := sortFamily(merged)
	fams := make([][]famMember, 1<<len(va.left))
	for i := range fams {
		fams[i] = base
	}
	return viewState{fams: fams, key: famsKey(fams)}
}

// invMask returns the left-name bitmask of an invocation name (0 when
// the name has no outgoing Q-pairs).
func (va *viewAutomaton) invMask(name string) int {
	for i, l := range va.left {
		if l == name {
			return 1 << i
		}
	}
	return 0
}

// requiredBy returns the bitmask of left names whose invocations
// require op to appear in their views: bit i is set iff inv(left[i]) Q op.
func (va *viewAutomaton) requiredBy(op history.Op) int {
	mask := 0
	for i, l := range va.left {
		if va.q.rel.Holds(history.Invocation{Name: l}, op) {
			mask |= 1 << i
		}
	}
	return mask
}

// justified reports whether some state in the invocation's view family
// satisfies op's pre- and postconditions under the fold step.
func (va *viewAutomaton) justified(fam []famMember, op history.Op) bool {
	for _, m := range fam {
		if !va.q.base.PreHolds(m.st, op) {
			continue
		}
		for _, s2 := range va.q.fold.Step(m.st, op) {
			if va.q.base.PostHolds(m.st, op, s2) {
				return true
			}
		}
	}
	return false
}

// Step accepts op exactly when some Q-view justifies it, advancing
// every family by the recurrence in the file comment. Transitions are
// memoized: during exploration the same compiled state recurs across
// many engine classes (paired with different right-hand state sets), so
// each (state, op) recurrence and its key rendering run once.
func (va *viewAutomaton) Step(s value.Value, op history.Op) []value.Value {
	vs, ok := s.(viewState)
	if !ok {
		return nil
	}
	ck := vs.key + "\x00" + op.String()
	va.mu.Lock()
	succ, hit := va.succ[ck]
	va.mu.Unlock()
	if hit {
		va.hits.Add(1)
		return succ
	}
	va.misses.Add(1)
	succ = va.step(vs, op)
	va.mu.Lock()
	va.succ[ck] = succ
	va.mu.Unlock()
	return succ
}

// step computes one uncached transition.
func (va *viewAutomaton) step(vs viewState, op history.Op) []value.Value {
	pmask := va.invMask(op.Name)
	if !va.justified(vs.fams[pmask], op) {
		return nil
	}
	rmask := va.requiredBy(op)
	next := make([][]famMember, len(vs.fams))
	for S := range vs.fams {
		merged := make(map[string]value.Value)
		if S&rmask == 0 {
			for _, m := range vs.fams[S] {
				merged[m.key] = m.st // carried member: key already known
			}
		}
		for _, m := range vs.fams[S|pmask] {
			for _, s2 := range va.q.fold.Step(m.st, op) {
				merged[s2.Key()] = s2
			}
		}
		next[S] = sortFamily(merged)
	}
	return []value.Value{viewState{fams: next, key: famsKey(next)}}
}
