package relaxcheck

import (
	"fmt"
	"sort"

	"relaxlattice/internal/history"
	"relaxlattice/internal/sim"
)

// Kind selects a workload shape for the soak harness.
type Kind int

const (
	// Uniform spreads arrivals evenly (Poisson) over the horizon with a
	// fixed enqueue/dequeue mix — the steady-state baseline.
	Uniform Kind = iota
	// Bursty packs arrivals into tight bursts separated by idle gaps,
	// stressing quorum contention and retry pileups.
	Bursty
	// Skewed is the adversarial enqueue/dequeue skew: an enqueue-heavy
	// fill phase followed by a dequeue-heavy drain phase, driving the
	// object through empty-view rejections and maximal reordering
	// opportunities.
	Skewed
	// FaultCorrelated plans explicit fault windows (crashes and
	// partitions with deterministic repair) and concentrates arrivals
	// inside them, so most operations run exactly while the system is
	// degraded.
	FaultCorrelated
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Bursty:
		return "bursty"
	case Skewed:
		return "skewed"
	case FaultCorrelated:
		return "fault-correlated"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every workload kind, in declaration order.
func Kinds() []Kind { return []Kind{Uniform, Bursty, Skewed, FaultCorrelated} }

// ParseKind resolves a kind by name.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("relaxcheck: unknown workload %q", s)
}

// Workload parameterizes a seeded workload plan.
type Workload struct {
	// Kind is the arrival shape.
	Kind Kind
	// Clients is the number of concurrent clients arrivals are spread
	// over.
	Clients int
	// Ops is the number of operations to plan.
	Ops int
	// Sites is the number of cluster sites fault events range over
	// (FaultCorrelated only).
	Sites int
}

// Arrival is one planned client submission.
type Arrival struct {
	At     float64
	Client int
	Inv    history.Invocation
}

// FaultEvent is one planned topology event (FaultCorrelated only).
type FaultEvent struct {
	At     float64
	Kind   string  // "crash" | "restore" | "partition" | "heal"
	Site   int     // crash/restore
	Groups [][]int // partition
}

// Plan is a fully deterministic soak script: arrivals in time order
// plus explicit fault events. Replaying a plan on the simulation
// engine reproduces a run byte-for-byte.
type Plan struct {
	Arrivals []Arrival
	Faults   []FaultEvent
}

// Every workload enqueues single-digit elements (1..maxElem), and
// Uniform, Bursty and FaultCorrelated dequeue with probability
// deqRatio — slightly enqueue-biased so the object rarely runs dry
// (Skewed uses its own phase mix).
const (
	maxElem  = 9
	deqRatio = 0.45
)

// Horizon is the simulated-time span arrivals cover: 20 arrivals per
// time unit.
func (w Workload) Horizon() float64 { return float64(w.Ops) / 20 }

// Plan expands the workload into a deterministic script using only the
// given RNG. Equal (Workload, seed) pairs yield equal plans. It panics
// when the workload has no clients or no ops.
func (w Workload) Plan(rng *sim.RNG) Plan {
	if w.Clients <= 0 || w.Ops <= 0 {
		panic(fmt.Sprintf("relaxcheck: workload needs clients and ops (got %d, %d)", w.Clients, w.Ops))
	}
	var p Plan
	switch w.Kind {
	case Uniform:
		p.Arrivals = w.uniformArrivals(rng)
	case Bursty:
		p.Arrivals = w.burstyArrivals(rng)
	case Skewed:
		p.Arrivals = w.skewedArrivals(rng)
	case FaultCorrelated:
		p = w.faultCorrelated(rng)
	default:
		panic(fmt.Sprintf("relaxcheck: unknown workload kind %d", int(w.Kind)))
	}
	sortArrivals(p.Arrivals)
	return p
}

// inv draws one invocation with the given dequeue probability.
func inv(rng *sim.RNG, pDeq float64) history.Invocation {
	if rng.Float64() < pDeq {
		return history.DeqInv()
	}
	return history.EnqInv(1 + rng.Intn(maxElem))
}

func (w Workload) uniformArrivals(rng *sim.RNG) []Arrival {
	mean := w.Horizon() / float64(w.Ops)
	at := 0.0
	out := make([]Arrival, 0, w.Ops)
	for i := 0; i < w.Ops; i++ {
		at += rng.Exp(mean)
		out = append(out, Arrival{At: at, Client: rng.Intn(w.Clients), Inv: inv(rng, deqRatio)})
	}
	return out
}

func (w Workload) burstyArrivals(rng *sim.RNG) []Arrival {
	// Bursts of ~Clients/2 back-to-back submissions; gaps sized so the
	// plan still spans roughly the horizon.
	burst := w.Clients/2 + 1
	bursts := w.Ops/burst + 1
	gap := w.Horizon() / float64(bursts)
	at := 0.0
	out := make([]Arrival, 0, w.Ops)
	for len(out) < w.Ops {
		at += rng.Exp(gap)
		t := at
		for i := 0; i < burst && len(out) < w.Ops; i++ {
			t += rng.Exp(gap / float64(10*burst))
			out = append(out, Arrival{At: t, Client: rng.Intn(w.Clients), Inv: inv(rng, deqRatio)})
		}
	}
	return out
}

func (w Workload) skewedArrivals(rng *sim.RNG) []Arrival {
	// Fill phase: 55% of ops, 90% enqueues. Drain phase: 90% dequeues.
	mean := w.Horizon() / float64(w.Ops)
	fill := w.Ops * 55 / 100
	at := 0.0
	out := make([]Arrival, 0, w.Ops)
	for i := 0; i < w.Ops; i++ {
		at += rng.Exp(mean)
		ratio := 0.1
		if i >= fill {
			ratio = 0.9
		}
		out = append(out, Arrival{At: at, Client: rng.Intn(w.Clients), Inv: inv(rng, ratio)})
	}
	return out
}

func (w Workload) faultCorrelated(rng *sim.RNG) Plan {
	if w.Sites <= 0 {
		panic("relaxcheck: fault-correlated workload needs Sites")
	}
	// Plan fault windows covering ~40% of the horizon: alternating
	// crash windows (a minority of sites down, then restored) and
	// partition windows (minority split off, then healed).
	type window struct{ start, end float64 }
	var windows []window
	var faults []FaultEvent
	at := rng.Exp(w.Horizon() / 12)
	for i := 0; at < w.Horizon(); i++ {
		dwell := rng.Exp(w.Horizon() / 15)
		if dwell < 1 {
			dwell = 1
		}
		end := at + dwell
		if i%2 == 0 {
			site := rng.Intn(w.Sites)
			faults = append(faults,
				FaultEvent{At: at, Kind: "crash", Site: site},
				FaultEvent{At: end, Kind: "restore", Site: site})
		} else {
			cut := 1 + rng.Intn((w.Sites-1)/2)
			group := rng.Perm(w.Sites)[:cut]
			sort.Ints(group)
			rest := make([]int, 0, w.Sites-cut)
			inGroup := make([]bool, w.Sites)
			for _, s := range group {
				inGroup[s] = true
			}
			for s := 0; s < w.Sites; s++ {
				if !inGroup[s] {
					rest = append(rest, s)
				}
			}
			faults = append(faults,
				FaultEvent{At: at, Kind: "partition", Groups: [][]int{rest, group}},
				FaultEvent{At: end, Kind: "heal"})
		}
		windows = append(windows, window{at, end})
		at = end + rng.Exp(w.Horizon()/8)
	}
	// 70% of arrivals land inside a fault window.
	out := make([]Arrival, 0, w.Ops)
	for i := 0; i < w.Ops; i++ {
		var t float64
		if len(windows) > 0 && rng.Float64() < 0.7 {
			win := windows[rng.Intn(len(windows))]
			t = win.start + rng.Float64()*(win.end-win.start)
		} else {
			t = rng.Float64() * w.Horizon()
		}
		out = append(out, Arrival{At: t, Client: rng.Intn(w.Clients), Inv: inv(rng, deqRatio)})
	}
	return Plan{Arrivals: out, Faults: faults}
}

// sortArrivals orders arrivals by time; the stable sort breaks ties by
// plan order, so equal seeds yield byte-identical schedules.
func sortArrivals(arr []Arrival) {
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
}
