package lattice

// Viable reports whether element s still accepts the history.
func (c *StepChecker) Viable(s Set) bool {
	for i, t := range c.sets {
		if t == s {
			return c.fronts[i] != nil
		}
	}
	return false
}

// Degraded reports whether the preferred behavior (the lattice top)
// has been lost.
func (c *StepChecker) Degraded() bool {
	return !c.Viable(c.lat.Universe.All())
}
