package relaxd

import (
	"errors"
	"fmt"
	"sync"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// Snapshot shipping: a recovering or wiped site rebuilds its durable
// store from a peer instead of waiting for client traffic to replay
// history at it. The joiner fetches a peer's state (published snapshot
// plus WAL suffix, MsgFetchState/MsgState), writes local ⊔ shipped to
// snap.tmp while it certifies the shipped history, and only once the
// history certifies renames it into place — one atomic publish — and
// serves. A site's state is a point in the join-semilattice of logs, so
// the join lands on exactly that least upper bound or not at all: a
// kill before the snapshot's rename recovers the pre-join store, a kill
// after it recovers the whole certified state, never a prefix of it.

// ErrNoPeer is returned when no peer answered a state fetch.
var ErrNoPeer = errors.New("relaxd: no peer shipped state")

// JoinHooks are test-only kill points inside the transfer. Production
// joins leave them nil. Returning an error from any hook crashes the
// replica at that step.
type JoinHooks struct {
	// AfterFetch runs once a peer's state is fetched and certified and
	// local ⊔ shipped is staged in snap.tmp, before the seal and the
	// rename that publish it.
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
	// It runs under the joiner's lock, so it must not call the joiner.
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

// errUncertified marks a peer whose shipped state did not certify.
var errUncertified = errors.New("relaxd: shipped state does not certify")

// JoinFrom rebuilds this replica's state from the first peer, in site
// order, whose state arrives and certifies. The replica must be up
// (freshly opened or restarted — typically over a wiped directory) and
// not yet serving. local ⊔ shipped is staged in snap.tmp while the
// shipped history is certified on the calling goroutine; only a history
// that certifies is sealed and renamed into place. A refusal discards
// the staged file and leaves the store and the resident log untouched,
// and the next peer is asked; when none certifies, the error wraps
// every refusal (ErrCorrupt, for PQCertify).
func (r *Replica) JoinFrom(cfg JoinConfig) (JoinInfo, error) {
	if cfg.Transport == nil {
		return JoinInfo{}, errors.New("relaxd: JoinFrom requires a transport")
	}
	var refused []error
	var lastErr error
	for site := 0; site < cfg.Transport.Sites(); site++ {
		if site == r.site {
			continue
		}
		resp, err := cfg.Transport.RoundTrip(site, Message{Type: MsgFetchState})
		if err == nil && resp.Type != MsgState {
			err = fmt.Errorf("relaxd: site %d answered type %d to a state fetch", site, resp.Type)
		}
		if err != nil {
			lastErr = err
			continue
		}
		// The reply's parts are this join's own, and the log takes them
		// over; Adopt keeps the first of any repeated timestamp — the
		// snapshot's, as a merge of the two parts would.
		info := JoinInfo{Peer: site, SnapshotEntries: len(resp.Entries), WALEntries: len(resp.Wal)}
		err = r.install(site, quorum.Adopt(joinParts(resp.Entries, resp.Wal)), cfg)
		if errors.Is(err, errUncertified) {
			refused = append(refused, err)
			continue
		}
		return info, err
	}
	if len(refused) > 0 {
		return JoinInfo{}, errors.Join(refused...)
	}
	if lastErr != nil {
		return JoinInfo{}, fmt.Errorf("%w: %v", ErrNoPeer, lastErr)
	}
	return JoinInfo{}, ErrNoPeer
}

// joinParts returns a state reply's snapshot part followed by its WAL
// part as one array. A decoded reply holds the WAL part right after the
// snapshot part in one array, which is returned as it is; separate parts
// are copied into a new array, so nothing is written into whatever lies
// in the snapshot part's spare capacity.
func joinParts(snap, wal []quorum.Entry) []quorum.Entry {
	if n := len(snap); len(wal) == 0 || cap(snap) > n && &snap[:n+1][n] == &wal[0] {
		return snap[:n+len(wal)]
	}
	return append(append(make([]quorum.Entry, 0, len(snap)+len(wal)), snap...), wal...)
}

// install joins the state peer shipped into the replica. It holds mu
// throughout, after the publish in flight, so nothing is written to the
// store between the capture of local ⊔ shipped and the seal below it. A
// durable replica stages the join on another goroutine while Certify
// runs on this one; the stager always finishes before install returns.
// A certification failure wraps errUncertified.
func (r *Replica) install(peer int, shipped quorum.Log, cfg JoinConfig) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.publishing {
		r.published.Wait()
	}
	if r.down {
		return fmt.Errorf("%w: site %d", ErrDown, r.site)
	}
	// Whatever this store had acknowledged stays, and the snapshot on
	// disk is the log in memory.
	installed := quorum.Merge(r.log, shipped)
	st := r.store
	var staging sync.WaitGroup
	var stageErr error
	if st != nil {
		staging.Add(1)
		go func() {
			defer staging.Done()
			stageErr = st.stage(installed)
		}()
		// Also on a panicking Certify: nothing touches the store after
		// install returns.
		defer staging.Wait()
	}
	var certErr error
	if cfg.Certify != nil {
		certErr = cfg.Certify(shipped.History())
	}
	staging.Wait()
	if certErr != nil {
		err := fmt.Errorf("%w: site %d: %w", errUncertified, peer, certErr)
		if st != nil {
			err = errors.Join(err, discardStaged(st.dir))
		}
		return err
	}
	if stageErr != nil {
		return stageErr
	}
	if cfg.Hooks.AfterFetch != nil {
		if err := cfg.Hooks.AfterFetch(peer); err != nil {
			r.crashLocked()
			return err
		}
	}
	if st != nil {
		// The seal comes after certification, so a refused join leaves
		// no new segment behind.
		seal, err := st.seal()
		if err != nil {
			return err
		}
		if err := st.commit(seal); err != nil {
			return err
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
			return err
		}
	}
	return nil
}
