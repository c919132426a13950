package quorum

import (
	"sort"
	"testing"
	"testing/quick"

	"relaxlattice/internal/history"
)

// logFrom decodes a byte string into a log with pseudo-random
// timestamps (collisions intended).
func logFrom(xs []uint8) Log {
	var entries []Entry
	for i, x := range xs {
		entries = append(entries, Entry{
			TS: Timestamp{Time: int(x % 16), Site: int(x % 3)},
			Op: history.Enq(i),
		})
	}
	return LogOf(entries...)
}

// oracleLogOf is LogOf without its presorted fast path: always a
// stable sort, then first-wins dedup.
func oracleLogOf(entries ...Entry) Log {
	sorted := append([]Entry(nil), entries...)
	sort.Stable(byTS(sorted))
	return fresh(dedup(sorted))
}

// LogOf equals the sort path on every input shape — random,
// presorted, duplicate-bearing and reversed — and never aliases its
// argument.
func TestLogOfMatchesSortPath(t *testing.T) {
	f := func(xs []uint8, spread uint8) bool {
		var random, presorted, dups []Entry
		time := 0
		for i, x := range xs {
			random = append(random, Entry{TS: Timestamp{Time: int(x % 16), Site: int(x % 3)}, Op: history.Enq(i)})
			time += 1 + int(x%(spread%4+1))
			presorted = append(presorted, Entry{TS: Timestamp{Time: time, Site: int(x % 3)}, Op: history.Enq(i)})
			dups = append(dups, Entry{TS: Timestamp{Time: time - int(x%2), Site: 0}, Op: history.Enq(i)})
		}
		reversed := make([]Entry, len(presorted))
		for i, e := range presorted {
			reversed[len(presorted)-1-i] = e
		}
		for _, in := range [][]Entry{random, presorted, dups, reversed} {
			before := append([]Entry(nil), in...)
			if got := LogOf(in...); !got.Equal(oracleLogOf(in...)) {
				return false
			}
			if len(in) > 0 && !(Log{entries: in}).Equal(Log{entries: before}) {
				return false // LogOf sorted its caller's slice
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Adopt builds the log LogOf and the sort path build on every input
// shape — presorted, unsorted and duplicate-bearing — and keeps a
// presorted input's array as the log's own instead of copying it.
func TestAdoptMatchesLogOf(t *testing.T) {
	f := func(xs []uint8) bool {
		var presorted, unsorted, dups []Entry
		for i, x := range xs {
			presorted = append(presorted, Entry{TS: Timestamp{Time: i, Site: int(x % 3)}, Op: history.Enq(i)})
			unsorted = append(unsorted, Entry{TS: Timestamp{Time: len(xs) - i, Site: int(x % 3)}, Op: history.Enq(i)})
			dups = append(dups, Entry{TS: Timestamp{Time: int(x % 8), Site: 0}, Op: history.Enq(i)})
		}
		for _, in := range [][]Entry{presorted, unsorted, dups} {
			got := Adopt(append([]Entry(nil), in...))
			if !got.Equal(LogOf(in...)) || !got.Equal(oracleLogOf(in...)) {
				return false
			}
		}
		if len(presorted) > 0 && &Adopt(presorted).View()[0] != &presorted[0] {
			return false // a presorted input was copied
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A View taken before a chain of in-place extensions keeps its entries,
// and appending to the View copies instead of writing into the array
// the extensions share.
func TestViewSurvivesInPlaceExtension(t *testing.T) {
	entry := func(time, v int) Entry {
		return Entry{TS: Timestamp{Time: time, Site: 1}, Op: history.Enq(v)}
	}
	var l Log
	for i := 1; i <= 20; i++ {
		l = l.Append(entry(i, i))
	}
	v := l.View()
	if len(v) != l.Len() || cap(v) != len(v) {
		t.Fatalf("View has len %d cap %d, want both %d", len(v), cap(v), l.Len())
	}
	want := LogOf(l.Entries()...)
	grown := l
	for i := 21; i <= 25; i++ {
		grown = grown.Append(entry(i, i))
	}
	if &grown.View()[0] != &v[0] {
		t.Fatal("the extensions copied: nothing in place left to check")
	}
	if !(Log{entries: v}).Equal(want) {
		t.Fatalf("View changed under in-place extension:\n%s", Log{entries: v})
	}
	_ = append(v, entry(21, 999))
	if got := grown.Entry(20); got.Op.Args[0] != 21 {
		t.Fatalf("appending to a View wrote into the log: entry 20 is %s", got)
	}
}

// Merge is commutative, associative, and idempotent on entry sets
// (duplicate timestamps collapse), and the empty log is its identity —
// the algebraic properties that make quorum-consensus log propagation
// order-insensitive.
func TestMergeLaws(t *testing.T) {
	sameTimestamps := func(a, b Log) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.Entry(i).TS != b.Entry(i).TS {
				return false
			}
		}
		return true
	}
	f := func(xs, ys, zs []uint8) bool {
		a, b, c := logFrom(xs), logFrom(ys), logFrom(zs)
		if !sameTimestamps(Merge(a, b), Merge(b, a)) {
			return false
		}
		if !sameTimestamps(Merge(Merge(a, b), c), Merge(a, Merge(b, c))) {
			return false
		}
		if !Merge(a, a).Equal(a) {
			return false
		}
		return Merge(a, Log{}).Equal(a) && Merge(Log{}, a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Merged logs stay sorted and duplicate-free.
func TestMergeInvariant(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		m := Merge(logFrom(xs), logFrom(ys))
		for i := 1; i < m.Len(); i++ {
			if !m.Entry(i - 1).TS.Less(m.Entry(i).TS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Append is equivalent to a merge with a singleton log.
func TestAppendEquivalentToMerge(t *testing.T) {
	f := func(xs []uint8, tsTime, tsSite uint8) bool {
		l := logFrom(xs)
		e := Entry{TS: Timestamp{Time: int(tsTime % 16), Site: int(tsSite % 3)}, Op: history.Enq(99)}
		return l.Append(e).Equal(Merge(l, LogOf(e)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Merge of any sublogs of L is a sublog of L, and merging all site
// logs reconstructs every entry — the view-construction soundness the
// replication protocol relies on.
func TestMergeSubsetProperty(t *testing.T) {
	f := func(xs []uint8, maskA, maskB uint8) bool {
		full := logFrom(xs)
		var subA, subB []Entry
		for i := 0; i < full.Len(); i++ {
			if maskA&(1<<(i%8)) != 0 {
				subA = append(subA, full.Entry(i))
			}
			if maskB&(1<<(i%8)) != 0 {
				subB = append(subB, full.Entry(i))
			}
		}
		merged := Merge(LogOf(subA...), LogOf(subB...))
		for i := 0; i < merged.Len(); i++ {
			if !full.Contains(merged.Entry(i).TS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Minus is the set difference by timestamp: together with what was
// subtracted it reconstructs l, and it holds nothing known holds.
func TestMinusIsSetDifference(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		l, known := logFrom(xs), logFrom(ys)
		diff := l.Minus(known)
		for _, e := range diff {
			if known.Contains(e.TS) || !l.Contains(e.TS) {
				return false
			}
		}
		common := 0
		for i := 0; i < l.Len(); i++ {
			if known.Contains(l.Entry(i).TS) {
				common++
			}
		}
		if len(diff)+common != l.Len() {
			return false
		}
		// The prefix case: a log minus what it grew from is its tail.
		grown := Merge(known, l)
		return LogOf(grown.Minus(known)...).Equal(LogOf(l.Minus(known)...)) &&
			len(known.Minus(known)) == 0 && len(l.Minus(Log{})) == l.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Extending a log — by Append or by merging entries that lie wholly
// past it — may reuse its backing array, but never at the expense of
// another log: every extension of a shared prefix keeps its own
// entries, whichever came first, and a Shared log never extends in
// place at all.
func TestExtensionsOfOnePrefixDoNotInterfere(t *testing.T) {
	entry := func(time, v int) Entry {
		return Entry{TS: Timestamp{Time: time, Site: 1}, Op: history.Enq(v)}
	}
	var base Log
	for i := 1; i <= 20; i++ {
		base = base.Append(entry(i, i))
	}
	snapshot := LogOf(base.Entries()...)
	tailA := LogOf(entry(21, 100), entry(22, 101))
	tailB := LogOf(entry(21, 200), entry(23, 201), entry(24, 202))

	a := Merge(base, tailA) // extends in place
	b := Merge(base, tailB) // forks: must copy
	c := base.Append(entry(25, 300))
	d := Merge(base.Shared(), tailB)
	want := func(name string, got Log, tail ...Entry) {
		t.Helper()
		if exp := LogOf(append(snapshot.Entries(), tail...)...); !got.Equal(exp) {
			t.Errorf("%s:\n%s\nwant\n%s", name, got, exp)
		}
	}
	want("base", base)
	want("first extension", a, tailA.Entries()...)
	want("second extension", b, tailB.Entries()...)
	want("append after both", c, entry(25, 300))
	want("extension of the shared form", d, tailB.Entries()...)
	if !a.HasPrefix(base) || !b.HasPrefix(base) || a.HasPrefix(b) || base.HasPrefix(a) {
		t.Error("HasPrefix disagrees with the entries")
	}
	if got := a.Minus(base); len(got) != 2 || got[0].Op.Args[0] != 100 {
		t.Errorf("a minus its prefix = %v", got)
	}
	if got := a.Slice(19, 21); len(got) != 2 || got[0].TS.Time != 20 || got[1].Op.Args[0] != 100 {
		t.Errorf("Slice(19, 21) = %v", got)
	}
}
