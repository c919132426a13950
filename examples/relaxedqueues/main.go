// Relaxed queues: raw-speed concurrent queues whose observed histories
// land on the paper's relaxation lattices. Each structure trades a
// constraint of the strict specification for scalability — exactly the
// degraded behaviors of Section 4 (semiqueue, stuttering queue,
// out-of-order priority queue), built on purpose as the scalability
// literature does — and declares the lattice element it claims. The
// linearization-point recorder (recorder.go) turns a concurrent run
// into a history.Op stream that relaxcheck certifies against the claim,
// so the lattice doubles as a conformance suite for fast concurrent
// objects.
//
// The example runs every structure with 4 goroutines of 2 500
// operations each and prints one verdict line per structure. The
// schedule is genuinely nondeterministic, so a line names only the
// structure, its claim and the certification outcome, never
// schedule-dependent counts. It exits 1 if any run leaves its claimed
// rung.
//
// Run with: go run ./examples/relaxedqueues
package main

import (
	"fmt"
	"io"
	"os"
	"sync"

	"relaxlattice/internal/lattice"
	"relaxlattice/internal/relaxcheck"
)

// workers and perWorker size the example's runs.
const workers, perWorker = 4, 2500

func main() {
	if err := run(os.Stdout, workers, perWorker); err != nil {
		fmt.Fprintln(os.Stderr, "relaxedqueues:", err)
		os.Exit(1)
	}
}

// structures returns a constructor for each structure the example
// certifies, one per claimed rung (the k-segment queue at two run
// bounds), lane structures sized so that each of `workers` goroutines
// owns a producer lane.
func structures(workers int) []func(j *Journal) RelaxedQueue {
	return []func(j *Journal) RelaxedQueue{
		func(j *Journal) RelaxedQueue { return NewStrict(j) },
		func(j *Journal) RelaxedQueue { return NewSegQueue(16, workers, j) },
		func(j *Journal) RelaxedQueue { return NewSegQueue(64, workers, j) },
		func(j *Journal) RelaxedQueue { return NewDupQueue(j) },
		func(j *Journal) RelaxedQueue { return NewLanePQ(workers, 8, j) },
		func(j *Journal) RelaxedQueue { return NewStrictPQ(j) },
	}
}

// run drives every structure with `workers` goroutines of `per`
// operations each, certifies each recorded history at the structure's
// claimed rung, and prints one verdict line per structure.
func run(w io.Writer, workers, per int) error {
	failed := false
	for _, mk := range structures(workers) {
		j := NewJournal(workers * per)
		q := mk(j)
		RunWorkload(q, workers, per)
		c := q.Claim()
		lat := c.Lattice(workers)
		verdict := "certified"
		if d := j.Dropped(); d != 0 {
			verdict = "FAIL (journal overflow)"
			failed = true
		} else if v := relaxcheck.Certify(lat, c.Levels(lat), c.Level, j.History()); v != nil {
			verdict = fmt.Sprintf("FAIL (%v)", v)
			failed = true
		}
		fmt.Fprintf(w, "conc     %-16s workers=%d claim=%s verdict=%s\n",
			q.Name(), workers, c.Level, verdict)
	}
	if failed {
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintln(w, "all conc runs landed inside their claimed lattice levels")
	return nil
}

// RelaxedQueue is the common face of the concurrent structures: a
// queue-like object with totally ordered int elements, driven only
// through per-goroutine handles. The lock-based structures return
// themselves as handles; the lane structures hand out one producer lane
// per Enqueuer and panic when asked for more Enqueuers than lanes.
type RelaxedQueue interface {
	// Name identifies the structure in benchmarks and reports.
	Name() string
	// Claim declares the lattice element the structure's recorded
	// histories are certified against.
	Claim() Claim
	// NewEnqueuer returns a producer handle.
	NewEnqueuer() Enqueuer
	// NewDequeuer returns a consumer handle.
	NewDequeuer() Dequeuer
}

// Enqueuer is a producer handle. Handles of the lane structures are
// not safe for concurrent use with themselves; distinct handles are
// safe with each other.
type Enqueuer interface {
	Enq(e int)
}

// Dequeuer is a consumer handle: Deq removes an element per the
// structure's relaxation and reports ok=false when it observes nothing
// ready to dequeue; such misses are not operations of the specification
// and are never recorded. A lane structure's handle is a
// single-goroutine cursor with a private serve buffer: elements claimed
// into a buffer but not yet served are invisible to other dequeuers and
// are served by the handle's later Deq calls.
type Dequeuer interface {
	Deq() (int, bool)
}

// Claim locates a structure on a relaxation lattice. The lattice is
// parameterized by the number of dequeuing goroutines because the
// recorder's ticket order admits one in-flight inversion per dequeuer
// (see the soundness discussion on Journal); the claimed automaton
// absorbs that bounded skew.
type Claim struct {
	// Lattice builds the relaxation lattice for executions observed by
	// at most `dequeuers` concurrent dequeuing goroutines.
	Lattice func(dequeuers int) *lattice.Relaxation
	// Levels maps rung names to the constraint sets they claim — the
	// relaxcheck.Certify claims table for this lattice.
	Levels func(lat *lattice.Relaxation) map[string]lattice.Set
	// Level is the rung the structure claims for its own histories.
	Level string
}

// RunWorkload drives q with `workers` goroutines, each with its own
// handles, alternating enqueues and dequeues for opsPerWorker
// operations. Enqueued elements are globally unique (worker g enqueues
// g·opsPerWorker + i), which keeps certification frontiers small: every
// Deq matches exactly one journal position. Dequeues that observe
// nothing ready return without recording, so the journal holds only
// specification operations. The function returns after all workers
// quiesce — the point at which the journal's History is complete
// (elements still sitting in dequeuer buffers were never served, so
// they are correctly absent from it).
func RunWorkload(q RelaxedQueue, workers, opsPerWorker int) {
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int, enq Enqueuer, deq Dequeuer) {
			defer wg.Done()
			base := g * opsPerWorker
			for i := 0; i < opsPerWorker; i++ {
				if i%2 == 0 {
					enq.Enq(base + i)
				} else {
					deq.Deq()
				}
			}
		}(g, q.NewEnqueuer(), q.NewDequeuer())
	}
	wg.Wait()
}

// splitmix64 is the SplitMix64 mixer: a cheap stateless hash used to
// seed per-handle sampling state from creation indexes, so concurrent
// dequeuers spread over shards without sharing RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
