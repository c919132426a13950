package main

import (
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
)

// gate is the correctness check after an operation workload: the live
// checker saw no violation at the claimed rung; then every site is
// crashed (descriptor closed, nothing flushed) and restarted from
// disk, and the merged recovered logs must be exactly the preload
// plus every acknowledged operation, and certify at the rung.
//
// Crash leaves the OS page cache intact, so this is process-kill
// durability, not power-loss durability.
func (s *service) gate() (quorum.Log, error) {
	if v := s.checker.Violation(); v != nil {
		return quorum.Log{}, fmt.Errorf("live checker at rung %s: %v", s.cfg.rung, v)
	}
	logs := make([]quorum.Log, len(s.replicas))
	for i, r := range s.replicas {
		s.kill(i)
		if _, err := r.Restart(); err != nil {
			return quorum.Log{}, fmt.Errorf("restart of site %d from disk: %w", i, err)
		}
		logs[i] = r.Log()
	}
	want := make(history.History, 0, len(s.cfg.preload)+len(s.acked))
	for _, e := range s.cfg.preload {
		want = append(want, e.Op)
	}
	want = append(want, s.acked...)
	return quorum.Merge(logs...), checkRecovered(s.lat, s.cfg.rung, want, logs)
}

// checkRecovered holds the merged recovered logs to the acknowledged
// history. One serial client ticks increasing timestamps, so timestamp
// order is completion order and the two must be equal, not merely
// contain each other: a missing entry is a lost acknowledged
// operation, an extra one a write the client was never told about.
func checkRecovered(lat *lattice.Relaxation, rung string, want history.History, logs []quorum.Log) error {
	got := quorum.Merge(logs...).History()
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("recovered logs hold %d entries, %d operations were acknowledged: %v is lost", len(got), len(want), want[i])
		case i >= len(want):
			return fmt.Errorf("recovered logs hold %d entries, %d operations were acknowledged: %v was never acknowledged", len(got), len(want), got[i])
		case !got[i].Equal(want[i]):
			return fmt.Errorf("recovered entry %d is %v, acknowledged operation %d was %v", i, got[i], i, want[i])
		}
	}
	if v := relaxcheck.Certify(lat, nominalClaims(lat.Universe), rung, got); v != nil {
		return fmt.Errorf("recovered history does not certify at rung %s: %v", rung, v)
	}
	return nil
}
