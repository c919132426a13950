package resilience

import "fmt"

// ControllerConfig tunes the adaptive degradation controller. Levels
// is required; every other field has a sensible default.
type ControllerConfig struct {
	// Levels is the number of rungs on the degradation ladder the
	// controller walks — a chain through the relaxation lattice,
	// strongest (preferred) behavior at level 0.
	Levels int
	// DescendAfter is the number of consecutive availability failures
	// before the controller steps one level down. Values below 1
	// default to 2.
	DescendAfter int
	// AscendAfter is the number of consecutive successes at a degraded
	// level before the controller asks for an upward probe. Values
	// below 1 default to 6.
	AscendAfter int
	// Hedge is how many levels above the current one a single probe
	// round examines, strongest first — hedging the recovery so a
	// client can leapfrog intermediate rungs when the preferred
	// quorums are back. Values below 1 default to 1.
	Hedge int
	// ProbeEvery, when positive, asks adapters (cluster.Adaptive) to
	// also schedule timed probe events on the simulation engine every
	// ProbeEvery time units (jittered by the policy's Jitter), so an
	// idle degraded client still climbs back once faults heal.
	ProbeEvery float64
	// Watcher, when set, observes every ladder transition at the moment
	// it is recorded — the hook adapters use to cross-check the claimed
	// degradation floor against an online relaxation checker on each
	// descent and ascent. It is called synchronously from
	// OnFailure/Probe and must not call back into the controller.
	Watcher func(Transition)
}

// DefaultControllerConfig returns the controller tuning used for
// EXPERIMENTS.md: descend after 2 straight failures, probe up after 6
// straight successes or every 10 time units, hedging 2 levels.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{DescendAfter: 2, AscendAfter: 6, Hedge: 2, ProbeEvery: 10}
}

// Transition is one controller-driven move on the degradation ladder.
type Transition struct {
	// From and To are ladder levels (0 is the preferred behavior).
	From, To int
	// Reason is "descend" (failure streak) or "ascend" (probe hit).
	Reason string
}

// Controller is the adaptive degradation state machine: it consumes
// per-operation availability signals (OnSuccess/OnFailure) and decides
// which level of a relaxation-lattice chain the client should operate
// at. After DescendAfter consecutive availability failures it steps
// down one level; after AscendAfter consecutive successes at a
// degraded level (or on a timed probe) it examines up to Hedge levels
// above and climbs to the strongest one whose quorums answer.
//
// The controller is a pure, deterministic state machine: no clocks, no
// randomness, no locks. It is driven from discrete-event callbacks
// (single-threaded by construction) and is not safe for concurrent
// use.
type Controller struct {
	cfg               ControllerConfig
	level             int
	floor             int
	failStreak        int
	okStreak          int
	descents, ascents int
}

// NewController builds a controller at level 0 (the preferred
// behavior). It panics when cfg.Levels < 1 (a programming error) and
// fills every other field's default.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Levels < 1 {
		panic(fmt.Sprintf("resilience: controller over %d levels", cfg.Levels))
	}
	if cfg.DescendAfter < 1 {
		cfg.DescendAfter = 2
	}
	if cfg.AscendAfter < 1 {
		cfg.AscendAfter = 6
	}
	if cfg.Hedge < 1 {
		cfg.Hedge = 1
	}
	return &Controller{cfg: cfg}
}

// Level returns the current ladder level (0 = preferred behavior).
func (c *Controller) Level() int { return c.level }

// Floor returns the weakest (highest-numbered) level the controller
// has ever occupied — the degradation the client *claimed* over the
// whole run, which the lattice audit checks the observed history
// against.
func (c *Controller) Floor() int { return c.floor }

// Degraded reports whether the controller is below the preferred
// level.
func (c *Controller) Degraded() bool { return c.level > 0 }

// Descents returns the number of downward transitions.
func (c *Controller) Descents() int { return c.descents }

// Ascents returns the number of upward transitions.
func (c *Controller) Ascents() int { return c.ascents }

// OnSuccess records one successful operation at the current level. It
// returns true when the success streak has reached AscendAfter at a
// degraded level — the signal that the client should Probe upward.
func (c *Controller) OnSuccess() bool {
	c.failStreak = 0
	c.okStreak++
	return c.level > 0 && c.okStreak >= c.cfg.AscendAfter
}

// OnFailure records one availability failure at the current level.
// When the failure streak reaches DescendAfter and a weaker level
// exists, the controller steps down and reports (newLevel, true);
// otherwise it reports (currentLevel, false).
func (c *Controller) OnFailure() (int, bool) {
	c.okStreak = 0
	c.failStreak++
	if c.failStreak < c.cfg.DescendAfter || c.level >= c.cfg.Levels-1 {
		return c.level, false
	}
	from := c.level
	c.level++
	c.failStreak = 0
	if c.level > c.floor {
		c.floor = c.level
	}
	c.record(Transition{From: from, To: c.level, Reason: "descend"})
	return c.level, true
}

// record counts one transition and notifies the watcher.
func (c *Controller) record(t Transition) {
	if t.Reason == "descend" {
		c.descents++
	} else {
		c.ascents++
	}
	if c.cfg.Watcher != nil {
		c.cfg.Watcher(t)
	}
}

// Probe attempts to ascend: available must report whether the client
// can currently assemble the quorums of the given (stronger) level.
// The controller examines up to Hedge levels above the current one,
// strongest first, and climbs to the first available — possibly
// leapfrogging intermediate rungs. It returns (newLevel, true) on an
// ascent and (currentLevel, false) otherwise. The success streak is
// consumed either way, so a failed probe waits for another full
// AscendAfter streak (or the next timed probe).
func (c *Controller) Probe(available func(level int) bool) (int, bool) {
	c.okStreak = 0
	if c.level == 0 {
		return c.level, false
	}
	lo := c.level - c.cfg.Hedge
	if lo < 0 {
		lo = 0
	}
	for lvl := lo; lvl < c.level; lvl++ {
		if available(lvl) {
			from := c.level
			c.level = lvl
			c.failStreak = 0
			c.record(Transition{From: from, To: lvl, Reason: "ascend"})
			return lvl, true
		}
	}
	return c.level, false
}
