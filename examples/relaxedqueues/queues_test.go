package main

import (
	"sort"
	"testing"

	"relaxlattice/internal/history"
)

// structures under test, with a fresh journal each.
func testStructures(j func() *Journal) []RelaxedQueue {
	return []RelaxedQueue{
		NewStrict(j()),
		NewSegQueue(4, 5, j()),
		NewSegQueue(64, 5, j()),
		NewDupQueue(j()),
		NewLanePQ(5, 8, j()),
		NewStrictPQ(j()),
	}
}

// Single-threaded, every structure is a sane queue: everything
// enqueued through one handle comes back exactly once through another
// (no concurrency, so even the duplicating queue cannot stutter).
func TestSingleThreadedDrain(t *testing.T) {
	for _, q := range testStructures(func() *Journal { return NewJournal(4096) }) {
		const n = 100
		e, d := q.NewEnqueuer(), q.NewDequeuer()
		for i := 1; i <= n; i++ {
			e.Enq(i)
		}
		var got []int
		for {
			v, ok := d.Deq()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != n {
			t.Fatalf("%s: drained %d elements, want %d", q.Name(), len(got), n)
		}
		sort.Ints(got)
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("%s: drained set has %d at position %d, want %d", q.Name(), v, i, i+1)
			}
		}
		if v, ok := d.Deq(); ok {
			t.Fatalf("%s: Deq on empty returned %d", q.Name(), v)
		}
	}
}

// Strict structures preserve exact order single-threaded.
func TestStrictOrders(t *testing.T) {
	q := NewStrict(nil)
	for i := 1; i <= 10; i++ {
		q.Enq(i)
	}
	for i := 1; i <= 10; i++ {
		if v, _ := q.Deq(); v != i {
			t.Fatalf("strict: Deq = %d, want %d", v, i)
		}
	}
	pq := NewStrictPQ(nil)
	for _, e := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		pq.Enq(e)
	}
	want := []int{9, 6, 5, 4, 3, 2, 1, 1}
	for _, w := range want {
		if v, _ := pq.Deq(); v != w {
			t.Fatalf("strictpq: Deq = %d, want %d", v, w)
		}
	}
}

// The strict ring survives growth with wrapped contents.
func TestStrictGrow(t *testing.T) {
	q := NewStrict(nil)
	// Wrap the head, then force growth past the initial capacity.
	for i := 0; i < 600; i++ {
		q.Enq(i)
		q.Deq()
	}
	const n = 3000
	for i := 0; i < n; i++ {
		q.Enq(i)
	}
	for i := 0; i < n; i++ {
		if v, ok := q.Deq(); !ok || v != i {
			t.Fatalf("after grow: Deq #%d = %d,%v, want %d,true", i, v, ok, i)
		}
	}
}

// segWitnessSchedule drives the deterministic two-lane schedule whose
// recorded history refutes strict FIFO: element 1 arrives first on
// lane 0, element 2 on lane 1, and a dequeuer whose cursor starts on
// lane 1 serves 2 before 1. Enqueuers own lanes in creation order and
// dequeuer cursors start on lane (creation index mod lanes), so the
// second dequeuer handle is the one pinned to lane 1.
func segWitnessSchedule(q *SegQueue) (first, second int) {
	e0 := q.NewEnqueuer() // lane 0
	e1 := q.NewEnqueuer() // lane 1
	e0.Enq(1)             // arrival order first
	e1.Enq(2)             // arrival order second
	q.NewDequeuer()       // cursor 0, unused
	d := q.NewDequeuer()  // cursor 1
	a, _ := d.Deq()
	b, _ := d.Deq()
	return a, b
}

// The k-segment queue genuinely reorders: a dequeuer whose rotation
// reaches another producer's lane first serves that lane's younger
// element ahead of an older one. This is the concrete witness behind
// the pinned FIFO refutation in certify_test.go.
func TestSegQueueReorderWitness(t *testing.T) {
	q := NewSegQueue(2, 2, nil)
	if first, second := segWitnessSchedule(q); first != 2 || second != 1 {
		t.Fatalf("witness schedule served %d then %d, want the out-of-order 2 then 1", first, second)
	}
}

// Lanes are single-writer: a lane structure refuses a producer handle
// beyond its lane count instead of sharing a lane.
func TestLaneEnqueuerPastLanesPanics(t *testing.T) {
	for _, q := range []RelaxedQueue{NewSegQueue(4, 2, nil), NewLanePQ(2, 8, nil)} {
		q.NewEnqueuer()
		q.NewEnqueuer()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: third enqueuer of two lanes did not panic", q.Name())
				}
			}()
			q.NewEnqueuer()
		}()
	}
}

// The lane PQ is a sane priority queue single-threaded on one shard.
func TestLanePQServesBestOfBuffer(t *testing.T) {
	q := NewLanePQ(1, 8, nil)
	e, d := q.NewEnqueuer(), q.NewDequeuer()
	for _, x := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		e.Enq(x)
	}
	// One shard and a batch bound ≥ the backlog: the buffer holds
	// everything, so serves are exactly best-first.
	want := []int{9, 6, 5, 4, 3, 2, 1, 1}
	for _, w := range want {
		if v, ok := d.Deq(); !ok || v != w {
			t.Fatalf("lanepq: Deq = %d,%v, want %d,true", v, ok, w)
		}
	}
	if _, ok := d.Deq(); ok {
		t.Fatal("lanepq: Deq on empty reported ok")
	}
}

// The journal records ticket order and drops past capacity.
func TestJournalWindowAndDrop(t *testing.T) {
	j := NewJournal(3)
	for i := 1; i <= 5; i++ {
		j.Record(j.Tick(), history.Enq(i))
	}
	h := j.History()
	if len(h) != 3 {
		t.Fatalf("History len = %d, want the 3-op window", len(h))
	}
	for i, op := range h {
		if want := history.Enq(i + 1); !op.Equal(want) {
			t.Fatalf("History[%d] = %v, want %v", i, op, want)
		}
	}
	if d := j.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
}

// History truncates at an unpublished ticket instead of skipping it.
func TestJournalTruncatesAtGap(t *testing.T) {
	j := NewJournal(8)
	t0 := j.Tick()
	t1 := j.Tick()
	j.Record(t1, history.Enq(2)) // t0 still unpublished
	if h := j.History(); len(h) != 0 {
		t.Fatalf("History with unpublished first ticket = %v, want empty", h)
	}
	j.Record(t0, history.Enq(1))
	if h := j.History(); len(h) != 2 {
		t.Fatalf("History after publishing = %d ops, want 2", len(h))
	}
}

// The queue lattice is monotone: dropping a constraint only enlarges
// the language. Checked by bounded language comparison at the worst
// parameters the certification tests use.
func TestQueueLatticeMonotone(t *testing.T) {
	alphabet := []history.Op{
		history.Enq(1), history.Enq(2),
		history.DeqOk(1), history.DeqOk(2),
	}
	for _, kw := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		lat := QueueLattice(kw[0], kw[1])
		if vs := lat.VerifyMonotone(alphabet, 5); len(vs) != 0 {
			t.Fatalf("QueueLattice(%d,%d) not monotone: %v", kw[0], kw[1], vs)
		}
	}
}
