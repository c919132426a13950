// Benchmarks regenerating every paper artifact (one per experiment;
// see DESIGN.md's per-experiment index), plus micro-benchmarks of the
// machinery they exercise. Run with:
//
//	go test -bench=. -benchmem
package relaxlattice_test

import (
	"io"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/core"
	"relaxlattice/internal/experiments"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/txn"
	"relaxlattice/internal/value"
)

// benchConfig keeps experiment benchmarks representative but bounded.
// MaxLen 6 was the experiment default before the memoized powerset
// engine (automaton/engine.go) raised it to 8, so these numbers stay
// comparable across that change.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Trials = 20000
	cfg.Bound = core.Bound{MaxElem: 2, MaxLen: 6}
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func Benchmark_E01_BagAxioms(b *testing.B)             { benchExperiment(b, "E01") }
func Benchmark_E02_FifoQueue(b *testing.B)             { benchExperiment(b, "E02") }
func Benchmark_E03_PriorityQueue(b *testing.B)         { benchExperiment(b, "E03") }
func Benchmark_E04_TheoremFour(b *testing.B)           { benchExperiment(b, "E04") }
func Benchmark_E05_OutOfOrder(b *testing.B)            { benchExperiment(b, "E05") }
func Benchmark_E06_Degenerate(b *testing.B)            { benchExperiment(b, "E06") }
func Benchmark_E07_OneCopySerializable(b *testing.B)   { benchExperiment(b, "E07") }
func Benchmark_E08_ProbMissTopN(b *testing.B)          { benchExperiment(b, "E08") }
func Benchmark_E09_Availability(b *testing.B)          { benchExperiment(b, "E09") }
func Benchmark_E10_BankAccount(b *testing.B)           { benchExperiment(b, "E10") }
func Benchmark_E11_SemiqueueLattice(b *testing.B)      { benchExperiment(b, "E11") }
func Benchmark_E12_StutteringQueue(b *testing.B)       { benchExperiment(b, "E12") }
func Benchmark_E13_EtaAblation(b *testing.B)           { benchExperiment(b, "E13") }
func Benchmark_E14_ConcurrencyThroughput(b *testing.B) { benchExperiment(b, "E14") }
func Benchmark_E15_SummaryChart(b *testing.B)          { benchExperiment(b, "E15") }
func Benchmark_E16_LatticeLaws(b *testing.B)           { benchExperiment(b, "E16") }
func Benchmark_X01_FIFOFamily(b *testing.B)            { benchExperiment(b, "X01") }
func Benchmark_X02_LatticeOccupancy(b *testing.B)      { benchExperiment(b, "X02") }
func Benchmark_X03_QuorumStructures(b *testing.B)      { benchExperiment(b, "X03") }
func Benchmark_X04_QuorumLatency(b *testing.B)         { benchExperiment(b, "X04") }

// --- micro-benchmarks of the underlying machinery ---

func BenchmarkLogMerge(b *testing.B) {
	clock := quorum.NewClock(1)
	var a, c quorum.Log
	for i := 0; i < 64; i++ {
		e := quorum.Entry{TS: clock.Tick(), Op: history.Enq(i)}
		if i%2 == 0 {
			a = a.Append(e)
		} else {
			c = c.Append(e)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := quorum.Merge(a, c)
		if merged.Len() != 64 {
			b.Fatal("merge lost entries")
		}
	}
}

func BenchmarkQCAJustified(b *testing.B) {
	qca := quorum.NewQCA("bench", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold())
	h := history.History{
		history.Enq(3), history.Enq(1), history.DeqOk(3),
		history.Enq(2), history.DeqOk(2), history.Enq(1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !qca.Justified(h, history.DeqOk(2)) {
			b.Fatal("should be justified")
		}
	}
}

func BenchmarkCompareFIFOvsSemiqueue(b *testing.B) {
	alphabet := history.QueueAlphabet(2)
	for i := 0; i < b.N; i++ {
		res := automaton.Compare(specs.FIFOQueue(), specs.Semiqueue(1), alphabet, 5)
		if !res.Equal {
			b.Fatal("should be equal")
		}
	}
}

// BenchmarkNaiveCompareTheoremFour is the per-history BFS oracle on the
// Theorem 4 comparison — the contrast benchmark for
// BenchmarkEngineCompareTheoremFour.
func BenchmarkNaiveCompareTheoremFour(b *testing.B) {
	alphabet := history.QueueAlphabet(2)
	qca := quorum.NewQCA("bench", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold()).Compiled()
	mpq := specs.MultiPriorityQueue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := automaton.NaiveCompare(qca, mpq, alphabet, 6)
		if !res.Equal {
			b.Fatal("should be equal")
		}
	}
}

// BenchmarkEngineCompareTheoremFour is the same comparison on the
// memoized powerset engine.
func BenchmarkEngineCompareTheoremFour(b *testing.B) {
	alphabet := history.QueueAlphabet(2)
	qca := quorum.NewQCA("bench", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold()).Compiled()
	mpq := specs.MultiPriorityQueue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := automaton.Compare(qca, mpq, alphabet, 6)
		if !res.Equal {
			b.Fatal("should be equal")
		}
	}
}

func BenchmarkSerialDependencyCheck(b *testing.B) {
	alphabet := history.QueueAlphabet(2)
	rel := quorum.Q1().Union(quorum.Q2())
	for i := 0; i < b.N; i++ {
		ok, _ := quorum.IsSerialDependency(specs.PriorityQueue(), rel, alphabet, 3)
		if !ok {
			b.Fatal("should hold")
		}
	}
}

func BenchmarkTxnQueueOptimistic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := txn.NewQueue(txn.Optimistic)
		feeder := q.Begin()
		for j := 1; j <= 16; j++ {
			_ = q.Enq(feeder, value.Elem(j))
		}
		_ = q.Commit(feeder)
		for j := 0; j < 16; j++ {
			t := q.Begin()
			if _, err := q.Deq(t); err != nil {
				b.Fatal(err)
			}
			_ = q.Commit(t)
		}
	}
}

func BenchmarkBagIns(b *testing.B) {
	bag := value.EmptyBag()
	for i := 0; i < 32; i++ {
		bag = bag.Ins(value.Elem(i % 8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bag.Ins(value.Elem(i % 8))
	}
}

func BenchmarkVotingAvailability(b *testing.B) {
	v := quorum.TaxiAssignments(7)["Q1Q2"]
	for i := 0; i < b.N; i++ {
		if v.Availability(history.NameDeq, 0.9) <= 0 {
			b.Fatal("bad availability")
		}
	}
}

func BenchmarkStepCheckerStep(b *testing.B) {
	lat := core.TaxiSimpleLattice()
	ops := []history.Op{
		history.Enq(3), history.DeqOk(3), history.Enq(1), history.DeqOk(1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := lattice.NewStepChecker(lat)
		for _, op := range ops {
			if !c.Step(op) {
				b.Fatal("checker died")
			}
		}
	}
}

func BenchmarkWeakestAccepting(b *testing.B) {
	lat := core.TaxiSimpleLattice()
	h := history.History{
		history.Enq(3), history.DeqOk(3), history.DeqOk(3), history.Enq(1), history.DeqOk(1),
	}
	for i := 0; i < b.N; i++ {
		if _, ok := lat.WeakestAccepting(h); !ok {
			b.Fatal("should be accepted somewhere")
		}
	}
}
