package sim

import "container/heap"

// Engine is a discrete-event simulation engine: events are scheduled at
// logical times and executed in time order (FIFO among equal times).
// The zero value is ready to use.
type Engine struct {
	now   float64
	queue eventQueue
	seq   int
}

type event struct {
	at  float64
	seq int
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (clamped to the present if t is in
// the past).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn after a delay.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// Every schedules fn repeatedly: first after delay(), then again after
// each subsequent delay(), for as long as fn returns true. delay is
// re-evaluated per round, so callers can jitter the period. Recurring
// processes built this way (probe loops, fault injectors) keep the
// queue non-empty; Run's horizon bounds execution regardless.
func (e *Engine) Every(delay func() float64, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			e.After(delay(), tick)
		}
	}
	e.After(delay(), tick)
}

// Run executes events until the queue is empty or the horizon is
// passed, returning the number of events executed. Events scheduled
// beyond the horizon remain queued.
func (e *Engine) Run(horizon float64) int {
	executed := 0
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		next.fn()
		executed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return executed
}

// Pending returns the number of queued events.
//
//lint:ignore unreached observer: cluster's fault tests check the event queue drained
func (e *Engine) Pending() int { return len(e.queue) }
