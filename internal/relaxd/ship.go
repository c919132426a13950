package relaxd

import (
	"errors"
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// Snapshot shipping: a recovering or wiped site rebuilds its durable
// store from a peer instead of waiting for client traffic to replay
// history at it. The joiner fetches a peer's state (published snapshot
// plus WAL suffix, MsgFetchState/MsgState), certifies the combined
// history *before* installing anything, publishes local ⊔ shipped as
// its own snapshot in one atomic Store.Snapshot, and only then serves.
// A site's state is a point in the join-semilattice of logs, so the
// join lands on exactly that least upper bound or not at all: a kill
// before the snapshot's rename recovers the pre-join store, a kill
// after it recovers the whole certified state, never a prefix of it.

// ErrNoPeer is returned when no peer answered a state fetch.
var ErrNoPeer = errors.New("relaxd: no peer shipped state")

// JoinHooks are test-only kill points inside the transfer. Production
// joins leave them nil. Returning an error from any hook crashes the
// replica at that step.
type JoinHooks struct {
	// AfterFetch runs once a peer's state is fetched and certified,
	// before anything is installed.
	AfterFetch func(peer int) error
	// AfterInstall runs after the joined state is published locally.
	AfterInstall func() error
	// BeforeReady runs right after AfterInstall, before JoinFrom returns.
	BeforeReady func() error
}

// JoinConfig configures a snapshot-shipping join.
type JoinConfig struct {
	// Transport reaches the peers (the full site set; the joiner's own
	// slot is skipped).
	Transport Transport
	// Certify, when set, judges the fetched history before install;
	// a non-nil error refuses the ship. PQCertify is the taxi default.
	Certify func(h history.History) error
	// Hooks are test-only kill points. Production joins leave them nil.
	Hooks JoinHooks
}

// JoinInfo reports what a join transferred.
type JoinInfo struct {
	// Peer is the site that shipped its state.
	Peer int
	// SnapshotEntries and WALEntries count the two parts of the
	// transfer as the peer reported them.
	SnapshotEntries int
	// WALEntries is the length of the shipped WAL suffix.
	WALEntries int
}

// JoinFrom rebuilds this replica's state from the first peer that
// answers a state fetch. The replica must be up (freshly opened or
// restarted — typically over a wiped directory) and not yet serving.
// The shipped history is certified before install; a certification
// failure refuses the ship and leaves the local store untouched.
func (r *Replica) JoinFrom(cfg JoinConfig) (JoinInfo, error) {
	if cfg.Transport == nil {
		return JoinInfo{}, errors.New("relaxd: JoinFrom requires a transport")
	}
	n := cfg.Transport.Sites()
	peer, resp, err := fetchState(cfg.Transport, r.site, n)
	if err != nil {
		return JoinInfo{}, err
	}
	snapLog := quorum.LogOf(resp.Entries...)
	combined := quorum.Merge(snapLog, quorum.LogOf(resp.Wal...))
	if cfg.Certify != nil {
		if err := cfg.Certify(combined.History()); err != nil {
			return JoinInfo{}, fmt.Errorf("relaxd: state shipped by site %d does not certify: %w", peer, err)
		}
	}
	info := JoinInfo{Peer: peer, SnapshotEntries: snapLog.Len(), WALEntries: len(resp.Wal)}

	r.mu.Lock()
	defer r.mu.Unlock()
	// The join's publish is in line, through the same writer, so the
	// publisher finishes first: one snapshot is written at a time.
	for r.publishing {
		r.published.Wait()
	}
	if r.down {
		return info, fmt.Errorf("%w: site %d", ErrDown, r.site)
	}
	if cfg.Hooks.AfterFetch != nil {
		if err := cfg.Hooks.AfterFetch(peer); err != nil {
			r.crashLocked()
			return info, err
		}
	}
	// One atomic publish of local ⊔ shipped: whatever this store had
	// acknowledged stays, and the snapshot on disk is the log in memory.
	installed := quorum.Merge(r.log, combined)
	if r.store != nil {
		if err := r.store.Snapshot(installed); err != nil {
			return info, err
		}
		r.snapLen = installed.Len()
		r.pubErr = nil
	}
	r.log = installed
	r.appended = 0
	for _, hook := range []func() error{cfg.Hooks.AfterInstall, cfg.Hooks.BeforeReady} {
		if hook == nil {
			continue
		}
		if err := hook(); err != nil {
			r.crashLocked()
			return info, err
		}
	}
	return info, nil
}

// fetchState asks each peer in site order for its state and returns
// the first well-formed answer.
func fetchState(t Transport, self, n int) (int, Message, error) {
	var lastErr error
	for site := 0; site < n; site++ {
		if site == self {
			continue
		}
		resp, err := t.RoundTrip(site, Message{Type: MsgFetchState})
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Type != MsgState {
			lastErr = fmt.Errorf("relaxd: site %d answered type %d to a state fetch", site, resp.Type)
			continue
		}
		return site, resp, nil
	}
	if lastErr != nil {
		return 0, Message{}, fmt.Errorf("%w: %v", ErrNoPeer, lastErr)
	}
	return 0, Message{}, ErrNoPeer
}
