package obs

import "sync/atomic"

// Clock supplies logical time to instrumented components. Model
// packages never read wall clocks; they receive a
// Clock — backed by a Lamport counter, a schedule index, a simulation
// engine, or (only in cmd/ binaries) real time — and stamp events with
// whatever it returns.
type Clock interface {
	Now() int64
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// Logical is an atomic monotonically increasing logical clock. Its
// zero value is ready to use; Now reads without advancing, Tick
// advances and returns the new time. Safe for concurrent use, but note
// that concurrent Ticks are ordered by the scheduler — deterministic
// journals should tick under the owning component's lock.
type Logical struct {
	t atomic.Int64
}

// Now returns the current time without advancing it.
//
//lint:ignore unreached Lamport read: trace's merge test aligns two tracers' clocks with Now and Witness
func (l *Logical) Now() int64 { return l.t.Load() }

// Tick advances the clock by one and returns the new time.
func (l *Logical) Tick() int64 { return l.t.Add(1) }

// Witness raises the clock to at least t (Lamport receive rule).
//
//lint:ignore unreached Lamport receive rule: trace's merge test aligns two tracers' clocks with it
func (l *Logical) Witness(t int64) {
	for {
		cur := l.t.Load()
		if t <= cur || l.t.CompareAndSwap(cur, t) {
			return
		}
	}
}
