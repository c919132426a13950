package relaxd

import (
	"errors"
	"fmt"
	"sync"

	"relaxlattice/internal/quorum"
)

// ErrDown is the transport-level failure for a replica that is crashed
// (in-process transports) or unreachable (TCP dial/IO failures wrap
// their own errors but mean the same thing to the protocol: the site
// does not respond and drops out of the quorum).
var ErrDown = errors.New("relaxd: site down")

// ReplicaHooks are test-only crash points. Production replicas leave
// them nil.
type ReplicaHooks struct {
	// BeforeAppend, when set, runs before a received entry is written
	// to the WAL; returning an error aborts the append un-durably (a
	// crash before the write reached the log).
	BeforeAppend func(site int, e quorum.Entry) error
	// BeforeAck, when set, runs after the WAL append and sync but
	// before the acknowledgement is sent; returning an error drops the
	// ack (a crash in the window where the entry is durable but the
	// client does not know it).
	BeforeAck func(site int) error
}

// Replica is one site: a resident log, its durable store, and the
// message handler the transports dispatch into. All state is guarded
// by mu; handlers are safe for concurrent connections. Appends are
// pipelined: the WAL write happens under mu, the fsync wait happens
// after mu is released, so concurrent appends from different
// connections share one group-commit fsync window while every ack
// still waits for its own records to be durable. Snapshots are
// published off mu too, by one publisher goroutine at a time.
type Replica struct {
	mu    sync.Mutex
	site  int
	dir   string       // "" for an ephemeral (in-memory) replica
	opts  StoreOptions // retained for Restart
	store *Store       // guarded by mu; nil when ephemeral or crashed
	log   quorum.Log   // guarded by mu
	down  bool         // guarded by mu
	// inc is the open store's incarnation; guarded by mu. Until the
	// store is reopened the resident log only grows, which is what lets
	// a client name a frontier instead of refetching the log. 0 for an
	// ephemeral replica: with no store there is no reopening to mark (it
	// restarts empty), so it promises nothing and clients remember
	// nothing about it — every exchange with it moves the whole log.
	inc uint64
	// appended counts WAL records since the last seal; guarded by mu.
	appended int
	// snapLen is how many of the resident log's entries the published
	// snapshot covers (the split point MsgFetchState reports); guarded
	// by mu. It moves when a publish lands. Merges can reorder entries,
	// so it is a hint, not an exact prefix — joiners merge both parts
	// anyway.
	snapLen int
	// publishing is set while the publisher goroutine runs; guarded by
	// mu.
	publishing bool
	// rounds counts the publishes the publisher has finished, landed or
	// not; guarded by mu.
	rounds int
	// published is broadcast (with mu held) after each round and when
	// the publisher exits.
	published *sync.Cond
	// pubErr is the last publish or seal failure, kept until a publish
	// lands; guarded by mu. The next due append and Close report it.
	pubErr error
	// SnapshotEvery, when positive, publishes a snapshot (compacting
	// the sealed WAL segments) once SnapshotEvery entries have been
	// appended since the last one began. The publish runs off the append
	// path, one at a time: one that falls due while another runs is not
	// queued but coalesced into a single publish of the newest log when
	// the running one finishes. Set before serving.
	SnapshotEvery int
	// Hooks are test-only crash points. Set before serving.
	Hooks ReplicaHooks
}

// OpenReplica opens site's durable store under dir and recovers its
// log. An empty dir creates an ephemeral replica (no durability) —
// the deterministic-test configuration.
func OpenReplica(site int, dir string, opts StoreOptions) (*Replica, RecoveryInfo, error) {
	r := &Replica{site: site, dir: dir, opts: opts}
	r.published = sync.NewCond(&r.mu)
	if dir == "" {
		return r, RecoveryInfo{}, nil
	}
	store, log, info, err := OpenStore(dir, opts)
	if err != nil {
		return nil, info, err
	}
	r.store = store
	r.inc = store.inc
	r.log = log
	r.snapLen = info.SnapshotEntries
	return r, info, nil
}

// Site returns the replica's site index.
func (r *Replica) Site() int { return r.site }

// Log returns the resident log. It shares the immutable entries but
// not the replica's right to extend them in place.
func (r *Replica) Log() quorum.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Shared()
}

// Crash simulates a hard kill: the replica stops answering, its
// in-memory state is dropped, and its store is closed without any
// final flush beyond what already reached the kernel. Requests
// parked in WaitDurable fail over to an error and are never acked. A
// publish in flight finishes first, so only one snapshot is ever being
// written.
func (r *Replica) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashLocked()
}

// Restart recovers a crashed replica from its durable store — the
// crash-restart headline. Ephemeral replicas restart empty (they have
// no durability to recover from).
func (r *Replica) Restart() (RecoveryInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.publishing {
		r.published.Wait()
	}
	if !r.down {
		return RecoveryInfo{}, fmt.Errorf("relaxd: site %d is not down", r.site)
	}
	if r.dir == "" {
		r.down = false
		r.log = quorum.Log{}
		return RecoveryInfo{}, nil
	}
	store, log, info, err := OpenStore(r.dir, r.opts)
	if err != nil {
		return info, err
	}
	r.store = store
	r.inc = store.inc
	r.log = log
	r.down = false
	r.appended = 0
	r.snapLen = info.SnapshotEntries
	r.pubErr = nil
	return info, nil
}

// Close shuts the replica down cleanly (final sync included), after
// the publish in flight, if any. It reports a publish failure that no
// later publish has made good.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down = true
	for r.publishing {
		r.published.Wait()
	}
	if r.store == nil {
		return nil
	}
	err := errors.Join(r.pubErr, r.store.Close())
	r.store = nil
	return err
}

// Handle processes one protocol message and returns the reply. A
// non-nil error is a transport-level failure — the site gives no
// answer at all (down, or a test hook simulating a crash mid-request).
func (r *Replica) Handle(req Message) (Message, error) {
	if req.Type == MsgAppend {
		return r.applyAppend(req.Inc, req.Entries)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if req.Type == MsgFetchState {
		// A publish in flight lands first, so the split below is the
		// newest snapshot on disk. Only that round is waited for: a
		// publisher kept busy by appends cannot stall a joiner.
		for round := r.rounds; r.publishing && r.rounds == round; {
			r.published.Wait()
		}
	}
	if r.down {
		return Message{}, fmt.Errorf("%w: site %d", ErrDown, r.site)
	}
	switch req.Type {
	case MsgPing:
		return Message{Type: MsgPong}, nil
	case MsgGetLog:
		// The frontier test. Within this incarnation the log has only
		// grown since the client learned its Have entries, all at or
		// below Max; if the Have-th resident entry is Max, the site holds
		// exactly Have entries at or below Max, so they are the client's
		// and only what follows need travel. Anything else — another
		// incarnation, an entry some other client inserted below Max, no
		// frontier at all — is answered from the start of the log.
		n, start := r.log.Len(), 0
		if r.inc != 0 && req.Inc == r.inc && req.Have > 0 && req.Have <= n && r.log.Entry(req.Have-1).TS == req.Max {
			start = req.Have
		}
		return Message{Type: MsgLog, Inc: r.inc, Delta: start > 0, Entries: r.log.Slice(start, n)}, nil
	case MsgFetchState:
		// Snapshot shipping: the resident log split at the published-
		// snapshot boundary, so a joiner can account for what came from
		// the snapshot vs the WAL suffix. Both parts alias the resident
		// entries, uncopied: the reply is encoded after mu is released,
		// and appends meanwhile only ever write past the log's length.
		k := r.snapLen
		if k > r.log.Len() {
			k = r.log.Len()
		}
		all := r.log.View()
		return Message{Type: MsgState, Entries: all[:k], Wal: all[k:]}, nil
	}
	return Message{Type: MsgErr, Err: fmt.Sprintf("unexpected message type %d", req.Type)}, nil
}

// applyAppend merges received entries into the resident log, making
// every one the site is missing durable before acknowledging. A
// non-zero tag says the sender left out what it knows this incarnation
// to hold; under any other incarnation that claim is void and the
// request is refused with MsgStale, so an ack always means the site
// holds the sender's whole view.
//
// The WAL write and log merge happen under mu; the durability wait
// happens after mu is released, so concurrent appends pipeline into
// shared fsync windows. Merging before the fsync is safe: a later
// request that finds its entries already resident waits on a commit
// sequence at least as high as the write that added them, so no ack
// ever precedes its records' durability. When a snapshot falls due and
// no publish runs, the append seals the store and captures the log here
// and hands the capture to the publisher; it waits for the seal, not
// the publish. If the last publish failed, that append answers with the
// failure instead of an ack.
func (r *Replica) applyAppend(tag uint64, view []quorum.Entry) (Message, error) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return Message{}, fmt.Errorf("%w: site %d", ErrDown, r.site)
	}
	if tag != 0 && tag != r.inc {
		r.mu.Unlock()
		return Message{Type: MsgStale}, nil
	}
	var missing []quorum.Entry
	for _, e := range view {
		if !r.log.Contains(e.TS) {
			missing = append(missing, e)
		}
	}
	for _, e := range missing {
		if r.Hooks.BeforeAppend != nil {
			if err := r.Hooks.BeforeAppend(r.site, e); err != nil {
				r.crashLocked()
				r.mu.Unlock()
				return Message{}, err
			}
		}
	}
	st := r.store
	var target int64
	if st != nil {
		var err error
		target, err = st.AppendBatch(missing)
		if err != nil {
			r.mu.Unlock()
			return Message{Type: MsgErr, Err: err.Error()}, nil
		}
	}
	r.log = quorum.Merge(r.log, quorum.LogOf(missing...))
	r.appended += len(missing)
	if st != nil && r.SnapshotEvery > 0 && r.appended >= r.SnapshotEvery && !r.publishing {
		// The seal syncs through target, so the wait below returns at
		// once: this append acks through the seal's fsync.
		seal, err := st.seal()
		if err != nil {
			r.mu.Unlock()
			return Message{Type: MsgErr, Err: err.Error()}, nil
		}
		r.appended = 0
		r.publishing = true
		go r.publish(st, r.log.Shared(), seal)
		if err := r.pubErr; err != nil {
			r.mu.Unlock()
			return Message{Type: MsgErr, Err: err.Error()}, nil
		}
	}
	r.mu.Unlock()

	if st != nil {
		if err := st.WaitDurable(target); err != nil {
			r.mu.Lock()
			down := r.down
			r.mu.Unlock()
			if down {
				// Crashed while waiting: vanish like a dead site.
				return Message{}, fmt.Errorf("%w: site %d", ErrDown, r.site)
			}
			return Message{Type: MsgErr, Err: err.Error()}, nil
		}
	}
	if r.Hooks.BeforeAck != nil {
		if err := r.Hooks.BeforeAck(r.site); err != nil {
			r.Crash()
			return Message{}, err
		}
	}
	return Message{Type: MsgAck, N: len(missing)}, nil
}

// publish is the replica's one publisher. It publishes l, captured
// under mu right after the seal — the seal syncs first, so l holds every
// record in the segments below it — outside mu while appends go on.
// While SnapshotEvery more entries arrived during a round, it seals and
// captures again and publishes once more, so a burst coalesces into a
// few publishes of the newest log and a quiet replica still ends
// compacted. A failed round compacts nothing the WAL still needs, is
// kept in pubErr until a publish lands, and the next due point retries
// it: every acknowledged entry is already durable in the WAL. The
// publisher exits when nothing is due or st is no longer the replica's
// store.
func (r *Replica) publish(st *Store, l quorum.Log, seal int) {
	for {
		err := st.publish(l, seal)
		r.mu.Lock()
		if r.store == st {
			r.pubErr = err
			if err == nil {
				r.snapLen = l.Len()
			}
		}
		r.rounds++
		more := r.store == st && !r.down && r.appended >= r.SnapshotEvery
		if more {
			if seal, err = st.seal(); err != nil {
				r.pubErr = err
				more = false
			} else {
				l = r.log.Shared()
				r.appended = 0
			}
		}
		r.publishing = more
		r.published.Broadcast()
		r.mu.Unlock()
		if !more {
			return
		}
	}
}

// crashLocked is Crash with mu already held (hook-triggered crashes).
// Like Crash it lets a publish in flight finish first, releasing mu
// while it waits, so the directory is final when it returns. The
// publisher itself must not call it.
func (r *Replica) crashLocked() {
	r.down = true
	for r.publishing {
		r.published.Wait()
	}
	r.log = quorum.Log{}
	r.appended = 0
	r.snapLen = 0
	if r.store != nil {
		// A real crash would not even close(2); closing the descriptor
		// loses nothing that the kernel already had, and it unparks
		// every WaitDurable caller with an error.
		r.store.wal.Close()
		r.store = nil
	}
}
