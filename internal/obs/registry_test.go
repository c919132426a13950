package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Counter("c").Add(2)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("g")
	g.Max(7)
	g.Max(4) // lower: must not regress
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge Max = %d, want 7", got)
	}

	h := r.Histogram("h", []int64{1, 4, 16})
	for _, v := range []int64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	// Buckets: ≤1, ≤4, ≤16, overflow.
	want := []uint64{2, 2, 1, 1}
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], hv.Counts)
		}
	}
	if hv.Sum != 112 || hv.Count != 6 {
		t.Fatalf("sum/count = %d/%d, want 112/6", hv.Sum, hv.Count)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	NewRegistry().Histogram("bad", []int64{4, 1})
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Max(9)
	r.Histogram("h", []int64{1}).Observe(2)
	r.Absorb(NewRegistry())
	NewRegistry().Absorb(r)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"counters": []`) {
		t.Fatalf("empty snapshot should serialize empty arrays, got %s", buf.String())
	}
}

func TestAbsorbMerges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	b.Counter("c").Add(3)
	b.Counter("only-b").Add(1)
	a.Gauge("peak").Max(5)
	b.Gauge("peak").Max(9)
	a.Histogram("h", []int64{1, 2}).Observe(1)
	b.Histogram("h", []int64{1, 2}).Observe(2)
	b.Histogram("h", []int64{1, 2}).Observe(50)

	a.Absorb(b)
	snap := a.Snapshot()
	if v, _ := snap.Counter("c"); v != 5 {
		t.Fatalf("absorbed counter = %d, want 5", v)
	}
	if v, _ := snap.Counter("only-b"); v != 1 {
		t.Fatalf("new counter = %d, want 1", v)
	}
	if v, _ := snap.Gauge("peak"); v != 9 {
		t.Fatalf("absorbed gauge = %d, want max 9", v)
	}
	hv := snap.Histograms[0]
	if hv.Count != 3 || hv.Sum != 53 {
		t.Fatalf("absorbed histogram count/sum = %d/%d, want 3/53", hv.Count, hv.Sum)
	}
	if hv.Counts[0] != 1 || hv.Counts[1] != 1 || hv.Counts[2] != 1 {
		t.Fatalf("absorbed buckets = %v", hv.Counts)
	}
}

func TestAbsorbMismatchedBoundsPanics(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h", []int64{1, 2}).Observe(1)
	b.Histogram("h", []int64{1, 3}).Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	a.Absorb(b)
}

// TestSnapshotDeterministicUnderConcurrency is the contract the -metrics
// acceptance check relies on: commutative updates from racing goroutines
// always produce the same snapshot bytes.
func TestSnapshotDeterministicUnderConcurrency(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					r.Counter("ops").Add(1)
					r.Gauge("hw").Max(int64(w*1000 + i))
					r.Histogram("sizes", []int64{10, 100, 1000}).Observe(int64(i))
				}
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("snapshot bytes differ across runs:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Add(1)
		r.Gauge(name).Max(1)
		r.Histogram(name, []int64{1}).Observe(1)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %+v", snap.Counters)
		}
	}
	for i := 1; i < len(snap.Gauges); i++ {
		if snap.Gauges[i-1].Name >= snap.Gauges[i].Name {
			t.Fatalf("gauges not sorted: %+v", snap.Gauges)
		}
	}
	for i := 1; i < len(snap.Histograms); i++ {
		if snap.Histograms[i-1].Name >= snap.Histograms[i].Name {
			t.Fatalf("histograms not sorted: %+v", snap.Histograms)
		}
	}
}
