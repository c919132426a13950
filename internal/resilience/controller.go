package resilience

import "fmt"

// The controller's tuning: descend one rung after DescendAfter
// consecutive availability failures; after AscendAfter consecutive
// successes at a degraded level, probe up to Hedge rungs above,
// strongest first — hedging the recovery so a client can leapfrog an
// intermediate rung when the preferred quorums are back.
const (
	DescendAfter = 2
	AscendAfter  = 6
	Hedge        = 2
)

// Controller is the adaptive degradation state machine: it consumes
// per-operation availability signals (OnSuccess/OnFailure) and decides
// which level of a relaxation-lattice chain the client should operate
// at. Its inputs are those signals and probe answers; its moves come
// back as return values — OnFailure and Probe report (level, moved) —
// so the caller, not a callback, acts on each one.
//
// The controller is a pure, deterministic state machine: no clocks, no
// randomness, no locks. It is driven from discrete-event callbacks
// (single-threaded by construction) and is not safe for concurrent
// use.
type Controller struct {
	levels            int
	level             int
	floor             int
	failStreak        int
	okStreak          int
	descents, ascents int
}

// NewController builds a controller at level 0 (the preferred
// behavior) of a ladder with the given number of rungs — a chain
// through the relaxation lattice, strongest first. It panics when
// levels < 1 (a programming error).
func NewController(levels int) *Controller {
	if levels < 1 {
		panic(fmt.Sprintf("resilience: controller over %d levels", levels))
	}
	return &Controller{levels: levels}
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
	return c.level > 0 && c.okStreak >= AscendAfter
}

// OnFailure records one availability failure at the current level.
// When the failure streak reaches DescendAfter and a weaker level
// exists, the controller steps down and reports (newLevel, true);
// otherwise it reports (currentLevel, false).
func (c *Controller) OnFailure() (int, bool) {
	c.okStreak = 0
	c.failStreak++
	if c.failStreak < DescendAfter || c.level >= c.levels-1 {
		return c.level, false
	}
	c.level++
	c.failStreak = 0
	c.descents++
	if c.level > c.floor {
		c.floor = c.level
	}
	return c.level, true
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
	for lvl := max(c.level-Hedge, 0); lvl < c.level; lvl++ {
		if available(lvl) {
			c.level = lvl
			c.failStreak = 0
			c.ascents++
			return lvl, true
		}
	}
	return c.level, false
}
