package cluster

import (
	"fmt"

	"relaxlattice/internal/sim"
)

// FaultConfig parameterizes a background fault process over a cluster:
// independent per-site crash/repair cycles and whole-network
// partition/heal cycles, with exponentially distributed dwell times —
// the crash and communication-failure events of the environment
// automaton (Section 2.3), generated stochastically.
//
// All durations are means of exponential distributions, expressed in
// the dimensionless simulated-time units of the driving sim.Engine
// (the same units as workload inter-arrival times and retry backoffs —
// never wall-clock time). Negative values are configuration errors and
// NewFaultProcess panics on them; zero disables the fault class.
type FaultConfig struct {
	// MTTF is the mean time between a site coming up and its next
	// crash, in simulated time units. Zero disables crashes; negative
	// values panic.
	MTTF float64
	// MTTR is the mean repair time for a crashed site, in simulated
	// time units. Must be positive when MTTF > 0; negative values
	// panic.
	MTTR float64
	// MTBP is the mean time between partitions, in simulated time
	// units. Zero disables partitions; negative values panic.
	MTBP float64
	// PartitionDwell is the mean time a partition lasts before healing
	// (followed by a gossip round), in simulated time units. Must be
	// positive when MTBP > 0; negative values panic.
	PartitionDwell float64
}

// FaultProcess drives a cluster's failures on a discrete-event engine.
type FaultProcess struct {
	cfg     FaultConfig
	cluster *Cluster
	engine  *sim.Engine
	rng     *sim.RNG
	stopped bool
	// Counters for reporting.
	Crashes, Repairs, Partitions, Heals int
}

// NewFaultProcess attaches a fault process to a cluster and engine. It
// panics on negative means, and on non-positive repair/dwell times
// when the corresponding fault class is enabled: a negative mean fed
// to an exponential sampler silently degenerates to an immediate (or
// nonsensical) event, so it is rejected up front as a configuration
// error rather than producing a quietly wrong experiment.
func NewFaultProcess(c *Cluster, engine *sim.Engine, rng *sim.RNG, cfg FaultConfig) *FaultProcess {
	if cfg.MTTF < 0 || cfg.MTTR < 0 || cfg.MTBP < 0 || cfg.PartitionDwell < 0 {
		panic(fmt.Sprintf("cluster: negative fault mean in %+v", cfg))
	}
	if cfg.MTTF > 0 && cfg.MTTR <= 0 {
		panic(fmt.Sprintf("cluster: crashes enabled with MTTR %v", cfg.MTTR))
	}
	if cfg.MTBP > 0 && cfg.PartitionDwell <= 0 {
		panic(fmt.Sprintf("cluster: partitions enabled with dwell %v", cfg.PartitionDwell))
	}
	return &FaultProcess{cfg: cfg, cluster: c, engine: engine, rng: rng}
}

// Start schedules the initial fault events. Call once before running
// the engine.
func (f *FaultProcess) Start() {
	if f.cfg.MTTF > 0 {
		for site := 0; site < f.cluster.cfg.Sites; site++ {
			f.scheduleCrash(site)
		}
	}
	if f.cfg.MTBP > 0 {
		f.schedulePartition()
	}
}

// Stop freezes fault injection from the current simulation time on:
// pending crash and partition events become no-ops, while in-flight
// repairs and heals still run, so the cluster converges to a fully
// healed state shortly after. Recovery-phase experiments call this at
// the end of the fault regime and then watch adaptive clients climb
// back up the ladder.
func (f *FaultProcess) Stop() { f.stopped = true }

func (f *FaultProcess) scheduleCrash(site int) {
	f.engine.After(f.rng.Exp(f.cfg.MTTF), func() {
		if f.stopped {
			return
		}
		f.cluster.Crash(site)
		f.Crashes++
		f.engine.After(f.rng.Exp(f.cfg.MTTR), func() {
			f.cluster.Restore(site)
			f.Repairs++
			// A recovering site catches up by gossip.
			f.cluster.Gossip()
			if !f.stopped {
				f.scheduleCrash(site)
			}
		})
	})
}

func (f *FaultProcess) schedulePartition() {
	f.engine.After(f.rng.Exp(f.cfg.MTBP), func() {
		if f.stopped {
			return
		}
		n := f.cluster.cfg.Sites
		cut := 1 + f.rng.Intn(n-1)
		perm := f.rng.Perm(n)
		f.cluster.Partition(perm[:cut], perm[cut:])
		f.Partitions++
		f.engine.After(f.rng.Exp(f.cfg.PartitionDwell), func() {
			f.cluster.Heal()
			f.cluster.Gossip()
			f.Heals++
			if !f.stopped {
				f.schedulePartition()
			}
		})
	})
}

// String summarizes the injected faults.
//
//lint:ignore unreached renders the fault counts in cluster's and integration's soak-test failures
func (f *FaultProcess) String() string {
	return fmt.Sprintf("faults(crashes=%d repairs=%d partitions=%d heals=%d)",
		f.Crashes, f.Repairs, f.Partitions, f.Heals)
}
