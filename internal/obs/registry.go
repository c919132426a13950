// Package obs is the deterministic observability substrate: a metrics
// registry (counters, gauges, fixed-bucket histograms with atomic
// updates and a stable, sorted-key JSON snapshot) and a logical-clock
// event journal (Recorder). It exists so the engine, the quorum
// cluster, and the transactional runtime can report *where in the
// relaxation lattice they are operating* — which constraint set C
// currently holds and which behavior φ(C) the system degraded to —
// without ad-hoc printf and without sacrificing reproducibility.
//
// The determinism contract, which the acceptance tests pin byte-for-
// byte, has two halves:
//
//   - Metric updates are commutative (counter adds, gauge maxima,
//     histogram bucket increments), so a final Snapshot is identical
//     for every interleaving of concurrent writers — any GOMAXPROCS,
//     any schedule. Scheduling-dependent quantities (cache hit rates
//     under racy lookups) must go to a separate "runtime" registry that is published via
//     expvar/pprof but never written to the deterministic snapshot.
//   - Journal events are ordered, so they are recorded only at
//     deterministic points under a component's own lock, with logical
//     time injected by the component (a Lamport tick, a schedule
//     index, a depth). Wall clocks never appear here, so the journal
//     replays byte-identically.
//
// Every type is nil-receiver-safe: a nil *Registry hands out nil
// instruments whose update methods no-op, so instrumented code pays a
// nil check — no branches, no allocation — when observation is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter; it no-ops on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 metric, written only by Max: a commutative update,
// so snapshots stay deterministic under concurrent writers.
type Gauge struct {
	v atomic.Int64
}

// Max raises the gauge to v if v exceeds the current value — the
// high-water-mark update. It no-ops on a nil receiver.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket int64 histogram: observation v lands in
// the first bucket whose bound is ≥ v, or in the overflow bucket.
// Bounds are fixed at construction; updates are atomic and commutative.
type Histogram struct {
	bounds []int64 // immutable after construction, ascending
	counts []atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// Observe records one observation; it no-ops on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Registry is a concurrency-safe, name-keyed collection of instruments.
// The zero value is not useful; a nil *Registry is: every accessor
// returns a nil instrument whose updates no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. On a
// nil registry it returns nil (whose Add no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use (later calls reuse the existing
// instrument and ignore bounds). It panics on unsorted bounds — a
// programming error — and returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
			}
		}
		h = &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Absorb merges src into r: counters add, gauges take the maximum
// (the high-water interpretation every deterministic gauge here uses),
// and histograms add bucket-wise. Histograms with mismatched bounds
// panic (a programming error: the same name must mean the same
// instrument). Absorbing nil, or absorbing into nil, no-ops.
func (r *Registry) Absorb(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, cs := range src.Snapshot().Counters {
		r.Counter(cs.Name).Add(cs.Value)
	}
	for _, gs := range src.Snapshot().Gauges {
		r.Gauge(gs.Name).Max(gs.Value)
	}
	for _, hs := range src.Snapshot().Histograms {
		dst := r.Histogram(hs.Name, hs.Bounds)
		if len(dst.bounds) != len(hs.Bounds) {
			panic(fmt.Sprintf("obs: absorbing histogram %q with %d bounds into %d", hs.Name, len(hs.Bounds), len(dst.bounds)))
		}
		for i, b := range dst.bounds {
			if b != hs.Bounds[i] {
				panic(fmt.Sprintf("obs: absorbing histogram %q with mismatched bounds", hs.Name))
			}
		}
		for i, c := range hs.Counts {
			dst.counts[i].Add(c)
		}
		dst.sum.Add(hs.Sum)
		dst.n.Add(hs.Count)
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts has one entry
// per bound plus the overflow bucket.
type HistogramValue struct {
	Name   string   `json:"name"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

// Snapshot is a point-in-time, name-sorted view of a registry. Its
// JSON encoding is stable: fixed field order, sorted instruments, no
// maps — the same metric values always serialize to the same bytes.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures every instrument, sorted by name. A nil registry
// yields an empty (but fully initialized) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: []CounterValue{}, Gauges: []GaugeValue{}, Histograms: []HistogramValue{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for name, h := range r.hists {
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, HistogramValue{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: counts,
			Sum:    h.sum.Load(),
			Count:  h.n.Load(),
		})
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// Counter returns the value of the named counter in the snapshot.
//
//lint:ignore unreached observer: cluster's, relaxcheck's and relaxd's tests assert counters with it
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the value of the named gauge in the snapshot.
//
//lint:ignore unreached observer: relaxcheck's tests assert the frontier gauge with it
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline — the byte-stable format `relaxctl run -metrics` emits.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
