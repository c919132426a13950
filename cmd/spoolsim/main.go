// spoolsim simulates the transactional print spooler of Section 4.2
// with concurrent printer-controller goroutines, one strategy per run,
// then verifies the executed schedule against the relaxation lattice's
// prediction: blocking → Atomic(FIFO), optimistic →
// Atomic(Semiqueue_k), pessimistic → Atomic(Stuttering_j), with k/j the
// observed number of concurrent dequeuers.
//
// Usage:
//
//	spoolsim [-strategy blocking|optimistic|pessimistic] [-printers N] [-jobs N] [-seed N]
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"
	"time"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/txn"
	"relaxlattice/internal/value"
)

func main() {
	strategyName := flag.String("strategy", "optimistic", "blocking, optimistic, or pessimistic")
	printers := flag.Int("printers", 3, "concurrent printer controllers")
	jobs := flag.Int("jobs", 12, "spooled jobs")
	seed := flag.Int64("seed", 1987, "random seed (abort decisions)")
	pAbort := flag.Float64("pabort", 0.1, "probability a printer transaction aborts (paper jam)")
	hold := flag.Duration("hold", 2*time.Millisecond, "printing time between dequeue and commit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar txn metrics on this address")
	flag.Parse()

	strategy, ok := map[string]txn.Strategy{
		"blocking":    txn.Blocking,
		"optimistic":  txn.Optimistic,
		"pessimistic": txn.Pessimistic,
	}[*strategyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "spoolsim: unknown strategy %q\n", *strategyName)
		os.Exit(1)
	}
	reg := obs.NewRegistry()
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr, reg); err != nil {
			fmt.Fprintln(os.Stderr, "spoolsim:", err)
			os.Exit(1)
		}
	}
	if err := run(os.Stdout, reg, strategy, *printers, *jobs, *seed, *pAbort, *hold); err != nil {
		fmt.Fprintln(os.Stderr, "spoolsim:", err)
		os.Exit(1)
	}
}

// startPprof serves net/http/pprof and expvar on addr, publishing the
// simulation's txn metrics live at /debug/vars under "spoolsim".
func startPprof(addr string, reg *obs.Registry) error {
	expvar.Publish("spoolsim", expvar.Func(func() any { return reg.Snapshot() }))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pprof and expvar on http://%s/debug/pprof (txn metrics at /debug/vars)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "spoolsim: pprof server:", err)
		}
	}()
	return nil
}

func run(w io.Writer, reg *obs.Registry, strategy txn.Strategy, printers, jobs int, seed int64, pAbort float64, hold time.Duration) error {
	switch {
	case printers < 1:
		// No printer would ever drain the spool.
		return fmt.Errorf("-printers %d: need at least 1 printer", printers)
	case !(pAbort >= 0 && pAbort < 1):
		// At 1 every print jams and is retried forever.
		return fmt.Errorf("-pabort %v: need a probability in [0, 1)", pAbort)
	}
	fmt.Fprintf(w, "print spooler: strategy=%s printers=%d jobs=%d\n", strategy, printers, jobs)
	cq := txn.NewConcurrentQueue(strategy)
	cq.Observe(reg, nil)

	// Clients spool jobs, each in its own transaction.
	for j := 1; j <= jobs; j++ {
		t := cq.Begin()
		if err := cq.Enq(t, value.Elem(j)); err != nil {
			return err
		}
		if err := cq.Commit(t); err != nil {
			return err
		}
	}

	// Printer controllers dequeue-print-commit concurrently; paper jams
	// abort the transaction, and the job is retried by someone else.
	var mu sync.Mutex
	printed := map[value.Elem]int{}
	remaining := jobs
	var wg sync.WaitGroup
	for p := 0; p < printers; p++ {
		g := sim.NewRNG(seed + int64(p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if remaining <= 0 {
					mu.Unlock()
					return
				}
				mu.Unlock()
				t := cq.Begin()
				e, err := cq.Deq(t)
				if err != nil {
					if abortErr := cq.AbortTxn(t); abortErr != nil {
						panic(abortErr) // t was just begun; abort cannot fail
					}
					mu.Lock()
					done := remaining <= 0
					mu.Unlock()
					if done {
						return
					}
					// The queue looked empty (items held by concurrent
					// transactions); back off instead of spinning.
					time.Sleep(hold / 4)
					continue
				}
				time.Sleep(hold) // printing
				if g.Bool(pAbort) {
					if abortErr := cq.AbortTxn(t); abortErr != nil {
						panic(abortErr) // paper jam abort of a live txn cannot fail
					}
					continue
				}
				if err := cq.Commit(t); err != nil {
					return
				}
				mu.Lock()
				printed[e]++
				remaining--
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	schedule, k := cq.Snapshot()
	fmt.Fprintf(w, "\nexecuted %d schedule steps; max concurrent dequeuers k=%d\n", len(schedule), k)
	duplicates, outOfOrder := summarize(printed, schedule)
	fmt.Fprintf(w, "jobs printed more than once: %d; printed out of spool order: %d\n", duplicates, outOfOrder)

	fmt.Fprintln(w, "\nlattice verification (hybrid atomicity in commit order):")
	report := func(name string, ok bool) { fmt.Fprintf(w, "  schedule ∈ L(Atomic(%s)): %v\n", name, ok) }
	report("FifoQueue", txn.HybridAtomic(schedule, specs.FIFOQueue()))
	if k >= 1 {
		report(fmt.Sprintf("Semiqueue_%d", k), txn.HybridAtomic(schedule, specs.Semiqueue(k)))
		report(fmt.Sprintf("Stuttering_%d", k), txn.HybridAtomic(schedule, specs.StutteringQueue(k)))
		report(fmt.Sprintf("SSqueue_%d_%d", k, k), txn.HybridAtomic(schedule, specs.SSQueue(k, k)))
	}
	want := map[txn.Strategy]string{
		txn.Blocking:    "blocking keeps FIFO at any concurrency",
		txn.Optimistic:  fmt.Sprintf("optimistic lands on Semiqueue_%d", k),
		txn.Pessimistic: fmt.Sprintf("pessimistic lands on Stuttering_%d", k),
	}
	fmt.Fprintln(w, "\nprediction:", want[strategy])

	fmt.Fprintln(w, "\ntxn runtime counters:")
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "  %-28s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(w, "  %-28s %d\n", g.Name, g.Value)
	}
	return nil
}

func summarize(printed map[value.Elem]int, schedule txn.Schedule) (duplicates, outOfOrder int) {
	for _, n := range printed {
		if n > 1 {
			duplicates += n - 1
		}
	}
	// Out-of-order: committed Deq responses compared to spool order.
	var seq []int
	for _, st := range schedule.Perm() {
		if st.Op.Name == history.NameDeq && len(st.Op.Res) == 1 {
			seq = append(seq, st.Op.Res[0])
		}
	}
	maxSeen := 0
	for _, e := range seq {
		if e < maxSeen {
			outOfOrder++
		}
		if e > maxSeen {
			maxSeen = e
		}
	}
	return duplicates, outOfOrder
}
