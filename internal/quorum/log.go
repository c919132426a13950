package quorum

import (
	"sort"
	"strings"

	"relaxlattice/internal/history"
)

// Entry is one log entry: the timestamped record of an operation
// execution (Section 3.1).
type Entry struct {
	TS Timestamp
	Op history.Op
}

// String renders the entry as "1:01 Enq(x)/Ok()".
func (e Entry) String() string { return e.TS.String() + " " + e.Op.String() }

// Log is a replicated object's representation: a sequence of entries
// sorted by timestamp with no duplicate timestamps. The zero value is
// the empty log. Logs are observably immutable; operations return new
// logs.
//
// Internally, logs derived by Append share one backing array and track
// the claimed tail through a high-water mark, so a chain of appends —
// the dominant pattern in quorum propagation, where every site log is
// the latest extension of an earlier view — extends in place with
// amortized-constant allocation instead of copying the whole log per
// entry. The first append past a fork (two logs extending the same
// prefix) falls back to a copy, preserving value semantics. The mark
// makes Append and Merge on aliases of one log unsafe across
// goroutines: the simulation never shares a Log between goroutines
// (each cluster runs on a single discrete-event engine), a relaxd
// replica hands its log out only as Shared, and everything else on a
// Log is a pure read.
type Log struct {
	entries []Entry
	// hwm is the number of entries of the backing array already claimed
	// by some log in this family; nil for logs built before tracking
	// (subslices, the zero value), which always copy on append.
	hwm *int
}

// growCap returns the backing-array capacity for a log of n entries:
// exact for tiny logs, then 1.5× headroom so append chains reallocate
// O(log n) times instead of every entry.
func growCap(n int) int {
	if n < 8 {
		return n
	}
	return n + n/2
}

// fresh wraps entries in a Log owning its backing array's tail.
func fresh(entries []Entry) Log {
	n := len(entries)
	return Log{entries: entries, hwm: &n}
}

type byTS []Entry

func (s byTS) Len() int           { return len(s) }
func (s byTS) Less(i, j int) bool { return s[i].TS.Less(s[j].TS) }
func (s byTS) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// LogOf builds a log from entries (sorted and deduplicated by
// timestamp; for duplicate timestamps the first occurrence wins).
// Entries already in strictly increasing timestamp order — a decoded
// snapshot or shipped log part — are only copied.
func LogOf(entries ...Entry) Log {
	return Adopt(append([]Entry(nil), entries...))
}

// Adopt builds a log that takes ownership of entries, the way LogOf
// builds one from a copy: the caller must not use the slice afterwards.
// Entries already in strictly increasing timestamp order — a freshly
// decoded snapshot or shipped log part — become the log as they are;
// anything else is sorted and deduplicated in place (first occurrence
// wins).
func Adopt(entries []Entry) Log {
	if !strictlyIncreasing(entries) {
		sort.Stable(byTS(entries))
		entries = dedup(entries)
	}
	return fresh(entries)
}

// strictlyIncreasing reports whether every timestamp is below the next.
func strictlyIncreasing(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if !entries[i-1].TS.Less(entries[i].TS) {
			return false
		}
	}
	return true
}

// dedup removes adjacent duplicate timestamps in place (first wins).
func dedup(sorted []Entry) []Entry {
	out := sorted[:0]
	for i, e := range sorted {
		if i == 0 || sorted[i-1].TS != e.TS {
			out = append(out, e)
		}
	}
	return out
}

// Append returns the log extended with a new entry (inserted in
// timestamp order; an entry whose timestamp is already present is
// discarded as a duplicate). Appending past the maximal timestamp —
// every freshly ticked entry — extends the shared backing array in
// place when this log is the family's latest extension (the high-water
// mark matches), and otherwise takes one amortized-growth copy.
func (l Log) Append(e Entry) Log {
	if n := len(l.entries); n == 0 || l.entries[n-1].TS.Less(e.TS) {
		return l.extend([]Entry{e})
	}
	return merge2(l, Log{entries: []Entry{e}})
}

// extend returns l followed by tail, whose timestamps all lie past
// l's: in place when l is its family's latest extension and the backing
// array has room, else as one amortized-growth copy (the fork rule).
func (l Log) extend(tail []Entry) Log {
	n, m := len(l.entries), len(l.entries)+len(tail)
	if l.hwm != nil && *l.hwm == n && m <= cap(l.entries) {
		ext := l.entries[:m]
		copy(ext[n:], tail)
		*l.hwm = m
		return Log{entries: ext, hwm: l.hwm}
	}
	out := make([]Entry, n, growCap(m))
	copy(out, l.entries)
	return fresh(append(out, tail...))
}

// Merge merges logs in timestamp order, discarding duplicates — the
// fundamental view-construction step of quorum consensus (Section 3.1).
// Inputs are already sorted (a Log invariant), so this is a linear
// k-way merge.
func Merge(logs ...Log) Log {
	switch len(logs) {
	case 0:
		return Log{}
	case 1:
		return logs[0] // immutable, safe to share
	}
	acc := logs[0]
	for _, l := range logs[1:] {
		acc = merge2(acc, l)
	}
	return acc
}

// containsAll reports whether every timestamp of sub appears in sup
// (both sorted). Two-pointer walk, no allocation. Slices sharing a
// backing array short-circuit: logs are immutable, so sub starting at
// sup's first element is literally a prefix of sup.
func containsAll(sup, sub []Entry) bool {
	if len(sub) > len(sup) {
		return false
	}
	if len(sub) == 0 || &sup[0] == &sub[0] {
		return true
	}
	j := 0
	for i := range sub {
		for j < len(sup) && sup[j].TS.Less(sub[i].TS) {
			j++
		}
		if j >= len(sup) || sup[j].TS != sub[i].TS {
			return false
		}
		j++
	}
	return true
}

// merge2 merges two sorted logs, discarding duplicate timestamps (left
// wins). When one side already contains the other — the overwhelmingly
// common case in quorum propagation, where a site receives a view that
// grew from its own log — the containing side is returned as-is with
// its high-water mark intact, so the chain of appends it anchors keeps
// extending in place. Logs are observably immutable, so sharing is
// safe, and the no-op merge allocates nothing. A genuine interleaving
// allocates once with growth headroom for the appends that typically
// follow a view assembly.
func merge2(la, lb Log) Log {
	a, b := la.entries, lb.entries
	if len(a) == 0 {
		return lb
	}
	if len(b) == 0 {
		return la
	}
	if a[len(a)-1].TS.Less(b[0].TS) {
		// b lies wholly past a — a site log, or a client's knowledge of
		// one, receiving entries with fresh timestamps: the multi-entry
		// form of Append.
		return la.extend(b)
	}
	if containsAll(b, a) {
		return lb
	}
	if containsAll(a, b) {
		return la
	}
	// Quorum merges are mostly-overlapping unions (the sites share the
	// propagated prefix), so a len(a)+len(b) allocation would be ~2× the
	// result. Pre-size to the larger side plus a sliver of the smaller;
	// a genuinely disjoint merge grows once more via append.
	capHint, small := len(a), len(b)
	if small > capHint {
		capHint, small = small, capHint
	}
	out := make([]Entry, 0, capHint+small/4+4)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].TS.Less(b[j].TS):
			out = append(out, a[i])
			i++
		case b[j].TS.Less(a[i].TS):
			out = append(out, b[j])
			j++
		default: // equal timestamps: keep one
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return fresh(out)
}

// Len returns the number of entries.
func (l Log) Len() int { return len(l.entries) }

// Entry returns the i-th entry in timestamp order.
func (l Log) Entry(i int) Entry { return l.entries[i] }

// Entries returns a copy of the entries in timestamp order.
func (l Log) Entries() []Entry { return l.Slice(0, len(l.entries)) }

// View returns the entries in timestamp order without copying them. The
// slice is read-only — callers must not write to it — and capped at its
// length, so appending to it copies. A reader on another goroutine may
// keep it while the owner goes on extending the log: an in-place
// extension writes only past the family's high-water mark, never below
// any log's length.
func (l Log) View() []Entry { return l.entries[:len(l.entries):len(l.entries)] }

// Slice returns a copy of entries [from, to) in timestamp order.
func (l Log) Slice(from, to int) []Entry {
	return append([]Entry(nil), l.entries[from:to]...)
}

// Minus returns, in timestamp order, the entries of l whose timestamps
// known does not hold. When known is a prefix of l — l is a view that
// grew from it — that is l's tail, found without walking either log.
func (l Log) Minus(known Log) []Entry {
	if l.HasPrefix(known) {
		return l.Slice(len(known.entries), len(l.entries))
	}
	var out []Entry
	k := known.entries
	for _, e := range l.entries {
		for len(k) > 0 && k[0].TS.Less(e.TS) {
			k = k[1:]
		}
		if len(k) == 0 || k[0].TS != e.TS {
			out = append(out, e)
		}
	}
	return out
}

// Shared returns l without its claim on the backing array's tail: the
// same entries, but Append and Merge on the result always copy. It is
// the form in which an owner that keeps extending its log in place may
// hand the log to another goroutine.
func (l Log) Shared() Log { return Log{entries: l.entries} }

// History reconstructs the object history by reading the entries in
// timestamp order.
func (l Log) History() history.History {
	h := make(history.History, 0, len(l.entries))
	for _, e := range l.entries {
		h = append(h, e.Op)
	}
	return h
}

// Contains reports whether the log holds an entry with timestamp ts.
func (l Log) Contains(ts Timestamp) bool {
	i := sort.Search(len(l.entries), func(i int) bool { return !l.entries[i].TS.Less(ts) })
	return i < len(l.entries) && l.entries[i].TS == ts
}

// MaxTS returns the largest timestamp in the log; ok is false when the
// log is empty.
func (l Log) MaxTS() (Timestamp, bool) {
	if len(l.entries) == 0 {
		return Timestamp{}, false
	}
	return l.entries[len(l.entries)-1].TS, true
}

// Equal reports whether two logs hold the same entries.
func (l Log) Equal(other Log) bool {
	if len(l.entries) != len(other.entries) {
		return false
	}
	for i := range l.entries {
		if l.entries[i].TS != other.entries[i].TS || !l.entries[i].Op.Equal(other.entries[i].Op) {
			return false
		}
	}
	return true
}

// String renders the log one entry per line.
//
//lint:ignore unreached renders logs: relaxd's stream test compares a joined log's rendering with the donor's
func (l Log) String() string {
	var b strings.Builder
	for i, e := range l.entries {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// HasPrefix reports whether p's entries are exactly the first p.Len()
// entries of l. Entries are compared by timestamp alone: quorum
// timestamps are globally unique (each entry is created once, under a
// fresh Lamport tick), so an equal timestamp implies an equal entry.
// This is the O(|p|) test behind incremental view evaluation — a view
// that extends a previously evaluated view can be folded from the
// cached states instead of replayed from scratch.
func (l Log) HasPrefix(p Log) bool {
	if len(p.entries) > len(l.entries) {
		return false
	}
	if len(p.entries) == 0 || &l.entries[0] == &p.entries[0] {
		return true // same backing array: logs are immutable (see containsAll)
	}
	for i := range p.entries {
		if l.entries[i].TS != p.entries[i].TS {
			return false
		}
	}
	return true
}
