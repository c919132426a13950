// Package quorum implements the quorum-consensus replication machinery
// of Section 3: timestamped logs ordered by logical clocks, views merged
// from initial quorums, quorum intersection relations between
// invocations and operations, the quorum consensus automaton QCA(A,Q,η)
// of Section 3.2, serial dependency relations (Definition 3), and
// Gifford-style weighted-voting quorum assignments.
package quorum

import "fmt"

// Timestamp is a logical-clock timestamp (Lamport 1978): a (time, site)
// pair totally ordered lexicographically, so entries generated anywhere
// in the system are globally ordered.
type Timestamp struct {
	Time int
	Site int
}

// Less reports the total order on timestamps.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Time != u.Time {
		return t.Time < u.Time
	}
	return t.Site < u.Site
}

// String renders the timestamp as "time:site" (the paper writes log
// entries as "1:01 Enq(x)/Ok()").
func (t Timestamp) String() string { return fmt.Sprintf("%d:%02d", t.Time, t.Site) }

// Clock is a Lamport logical clock owned by one site or client.
// The zero value is ready to use after setting Site.
type Clock struct {
	Site int
	time int
}

// NewClock returns a clock for the given site identifier.
func NewClock(site int) *Clock { return &Clock{Site: site} }

// Tick advances the clock and returns a fresh timestamp greater than
// every timestamp it has produced or witnessed.
func (c *Clock) Tick() Timestamp {
	c.time++
	return Timestamp{Time: c.time, Site: c.Site}
}

// Witness incorporates a timestamp received from elsewhere, ensuring
// subsequent Ticks dominate it.
func (c *Clock) Witness(t Timestamp) {
	if t.Time > c.time {
		c.time = t.Time
	}
}

// Now returns the current logical time without advancing it.
//
//lint:ignore unreached observer: cluster's engine tests check the clock did not tick on a refused operation
func (c *Clock) Now() int { return c.time }
