package relaxd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// The publish battery: a replica seals its store under its lock and
// publishes the snapshot outside it, one publish at a time. The replica
// is killed between every two publish steps while appends race it; a
// failed publish must compact nothing and be reported; and concurrent
// appends over sockets must never see two publishes in flight or lose
// an ack.

// flush waits until no publish is in flight — the explicit publish step
// a test takes instead of sleeping.
func (r *Replica) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.publishing {
		r.published.Wait()
	}
}

// ackOne appends one entry through Handle and requires the ack.
func ackOne(r *Replica, e quorum.Entry) error {
	resp, err := r.Handle(Message{Type: MsgAppend, Entries: []quorum.Entry{e}})
	if err != nil {
		return err
	}
	if resp.Type != MsgAck {
		return fmt.Errorf("site %d answered an append with %+v", r.Site(), resp)
	}
	return nil
}

// snapshotImage is the reference encoder: the snapshot file of l,
// encoded from scratch.
func snapshotImage(t *testing.T, l quorum.Log) []byte {
	t.Helper()
	b := append([]byte(snapMagic), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[headerLen:], uint32(l.Len()))
	for i := 0; i < l.Len(); i++ {
		var err error
		if b, err = appendRecord(b, l.Entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// readSnap returns the published snapshot file in dir.
func readSnap(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSnapshot holds the snapshot in dir to a full encode of want,
// byte for byte, then opens a copy of the store: it must recover all,
// with exactly want's entries from the snapshot.
func requireSnapshot(t *testing.T, dir string, want, all quorum.Log) {
	t.Helper()
	if got, full := readSnap(t, dir), snapshotImage(t, want); !bytes.Equal(got, full) {
		t.Fatalf("snapshot file (%d bytes) differs from a full encode of its %d entries (%d bytes)", len(got), want.Len(), len(full))
	}
	reopened := t.TempDir()
	copyStore(t, dir, reopened)
	s, log, info, err := OpenStore(reopened, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if info.SnapshotEntries != want.Len() || !log.Equal(all) {
		t.Fatalf("reopened %d entries (info %+v), want %d with %d from the snapshot", log.Len(), info, all.Len(), want.Len())
	}
}

// TestPublishThenJoinSnapshot runs off-lock publishes, then a join's
// in-line Snapshot through the same writer: each leaves exactly its log
// in the snapshot and a store that reopens to it.
func TestPublishThenJoinSnapshot(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenReplica(1, dir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SnapshotEvery = 3
	entries := serialPQEntries(7)
	for _, e := range entries {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
		// Each publish captures exactly the log at its due point.
		r.flush()
	}
	all := quorum.LogOf(entries...)
	requireSnapshot(t, dir, quorum.LogOf(entries[:6]...), all)

	donor, _, err := OpenReplica(0, "", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipped := quorum.Entry{TS: ts(100, 7), Op: history.Enq(4)}
	if err := ackOne(donor, shipped); err != nil {
		t.Fatal(err)
	}
	if _, err := r.JoinFrom(JoinConfig{Transport: NewLocal([]*Replica{donor, r})}); err != nil {
		t.Fatalf("JoinFrom: %v", err)
	}
	installed := all.Append(shipped)
	requireSnapshot(t, dir, installed, installed)
}

// TestPublishKillAtEveryStep kills a replica between every two steps of
// an off-lock publish while another goroutine keeps appending, and
// restarts it from disk. The restart must recover every acknowledged
// entry, find either the old snapshot or the new one, keep the segments
// contiguous, and reopen to the same state a second time.
func TestPublishKillAtEveryStep(t *testing.T) {
	errKill := errors.New("kill -9 mid-publish")
	points := []struct {
		name   string
		step   string // the hook that kills: write, sync, rename, remove
		remove int    // for remove: kill after this many removals
		landed bool   // the kill falls after the rename
	}{
		{name: "after-tmp-write", step: "write"},
		{name: "after-tmp-sync", step: "sync"},
		{name: "after-rename", step: "rename", landed: true},
		{name: "after-first-removal", step: "remove", remove: 1, landed: true},
		{name: "after-second-removal", step: "remove", remove: 2, landed: true},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			r, _, err := OpenReplica(0, dir, StoreOptions{SegmentRecords: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			r.SnapshotEvery = 3
			entries := serialPQEntries(200)
			const warm = 4
			for _, e := range entries[:warm] {
				if err := ackOne(r, e); err != nil {
					t.Fatal(err)
				}
			}
			r.flush()
			oldImg := readSnap(t, dir)

			// Arm the kill. No publish is in flight, and the next one starts
			// after these writes. A due publish has sealed off at least
			// SnapshotEvery records at two per segment, so it removes at
			// least two segments.
			var (
				newImg   []byte
				removals int
				fired    bool
			)
			// The publisher cannot crash the replica itself (a crash waits
			// for it), so the kill takes the site down at this step and the
			// abandoned publish touches the directory no further; the test
			// crashes it once the appender has seen the site die.
			kill := func(step string) error {
				if step != p.step || (step == "remove" && removals != p.remove) {
					return nil
				}
				fired = true
				r.mu.Lock()
				r.down = true
				r.mu.Unlock()
				return errKill
			}
			r.store.hooks = publishHooks{
				afterTmpWrite: func() error {
					img, err := os.ReadFile(filepath.Join(dir, "snap.tmp"))
					if err != nil {
						return err
					}
					newImg, removals = img, 0
					return kill("write")
				},
				afterTmpSync: func() error { return kill("sync") },
				afterRename:  func() error { return kill("rename") },
				afterRemove: func(int) error {
					removals++
					return kill("remove")
				},
			}

			acked := warm
			done := make(chan error, 1)
			go func() {
				for _, e := range entries[warm:] {
					if err := ackOne(r, e); err != nil {
						done <- err
						return
					}
					acked++
				}
				done <- nil
			}()
			if err := <-done; !errors.Is(err, ErrDown) {
				t.Fatalf("appender ended with %v, want the kill's ErrDown", err)
			}
			r.Crash()
			info, err := r.Restart()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if !fired {
				t.Fatal("kill point never fired")
			}

			recovered := r.Log()
			if recovered.Len() < acked || !quorum.LogOf(entries...).HasPrefix(recovered) {
				t.Fatalf("recovered %d entries (info %+v), want a prefix of the sent entries holding all %d acked", recovered.Len(), info, acked)
			}
			certifyQ1Q2(t, "recovered log", recovered.History())
			want := oldImg
			if p.landed {
				want = newImg
			}
			if got := readSnap(t, dir); !bytes.Equal(got, want) {
				t.Fatalf("snapshot after the kill is %d bytes; want %d (the new one: %v)", len(got), len(want), p.landed)
			}
			if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
				t.Fatalf("snap.tmp survived the restart: %v", err)
			}
			segs := segmentsOnDisk(t, dir)
			for i := 1; i < len(segs); i++ {
				if segs[i] != segs[i-1]+1 {
					t.Fatalf("segments not contiguous after the kill: %v", segs)
				}
			}

			r.Crash()
			again, err := r.Restart()
			if err != nil {
				t.Fatalf("second restart: %v", err)
			}
			if again != info || !r.Log().Equal(recovered) {
				t.Fatalf("second reopen: info %+v, %d entries; first: info %+v, %d entries", again, r.Log().Len(), info, recovered.Len())
			}
		})
	}
}

// TestPublishFailureCompactsNothing injects a failed publish: the old
// snapshot, every segment and the reported split stay as they were,
// nothing acknowledged is lost, the next due append reports the failure
// and publishes, and a failure no publish made good reaches Close.
func TestPublishFailureCompactsNothing(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenReplica(0, dir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SnapshotEvery = 3
	entries := serialPQEntries(12)
	ackAll := func(es []quorum.Entry) {
		t.Helper()
		for _, e := range es {
			if err := ackOne(r, e); err != nil {
				t.Fatal(err)
			}
		}
		r.flush()
	}
	split := func() int {
		t.Helper()
		resp, err := r.Handle(Message{Type: MsgFetchState})
		if err != nil {
			t.Fatal(err)
		}
		return len(resp.Entries)
	}

	ackAll(entries[:3])
	oldImg, oldSegs := readSnap(t, dir), segmentsOnDisk(t, dir)
	if split() != 3 {
		t.Fatalf("first publish: split %d, want 3", split())
	}

	errInjected := errors.New("injected publish failure")
	fail, failed := false, 0
	r.store.hooks.afterTmpSync = func() error {
		if !fail {
			return nil
		}
		fail = false
		failed++
		return errInjected
	}
	fail = true
	ackAll(entries[3:6])
	if failed != 1 {
		t.Fatal("the injected failure never fired")
	}
	if !bytes.Equal(readSnap(t, dir), oldImg) {
		t.Fatal("a failed publish replaced the snapshot")
	}
	if segs := segmentsOnDisk(t, dir); segs[0] != oldSegs[0] || len(segs) <= len(oldSegs) {
		t.Fatalf("a failed publish compacted: segments %v, were %v", segs, oldSegs)
	}
	if split() != 3 {
		t.Fatalf("a failed publish moved the split to %d", split())
	}

	// The next due append starts the retry and answers with the failure
	// instead of an ack; its entry is durable all the same.
	ackAll(entries[6:8])
	resp, err := r.Handle(Message{Type: MsgAppend, Entries: entries[8:9]})
	if err != nil || resp.Type != MsgErr || resp.Err != errInjected.Error() {
		t.Fatalf("the due append after a failed publish answered %+v, %v; want MsgErr %q", resp, err, errInjected)
	}
	r.flush()
	all := quorum.LogOf(entries[:9]...)
	requireSnapshot(t, dir, all, all)
	if segs := segmentsOnDisk(t, dir); len(segs) != 1 || segs[0] <= oldSegs[len(oldSegs)-1] {
		t.Fatalf("the retried publish left segments %v (were %v), want one fresh segment", segs, oldSegs)
	}
	if split() != 9 {
		t.Fatalf("split %d after the retried publish, want 9", split())
	}

	// The landed retry cleared the failure: the next due append acks. A
	// failure that no later publish makes good is Close's to report.
	fail = true
	ackAll(entries[9:12])
	if failed != 2 {
		t.Fatal("the second injected failure never fired")
	}
	if err := r.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close after a failed publish returned %v, want %q", err, errInjected)
	}
}

// TestSealKeepsEmptyActiveSegment runs the benchmark's store settings
// (SegmentRecords 100, SnapshotEvery 200): the append that reaches the
// 200-record mark rotates once, in AppendBatch, and the snapshot's seal
// reuses that fresh, empty segment instead of rotating again.
func TestSealKeepsEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenReplica(0, dir, StoreOptions{SegmentRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SnapshotEvery = 200
	for _, e := range serialPQEntries(200) {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
	}
	r.flush()
	if segs := segmentsOnDisk(t, dir); len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("segments %v after 200 appends, want wal-000002 alone", segs)
	}
}

// TestPublishCoalescesWhileOneRuns holds a publish between its steps
// while appends go on past two more due points: the appends are served
// (the publish holds no replica lock), nothing is queued, and when the
// held publish finishes one more publishes the newest log.
func TestPublishCoalescesWhileOneRuns(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenReplica(0, dir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SnapshotEvery = 3
	started, release := make(chan struct{}), make(chan struct{})
	var held, landed int
	r.store.hooks = publishHooks{
		afterTmpWrite: func() error {
			if held++; held == 1 {
				close(started)
				<-release
			}
			return nil
		},
		afterRename: func() error {
			landed++
			return nil
		},
	}
	entries := serialPQEntries(10)
	for i, e := range entries {
		if err := ackOne(r, e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == 2 {
			<-started
		}
	}
	close(release)
	r.flush()
	if landed != 2 {
		t.Fatalf("%d publishes landed, want the held one and one coalesced", landed)
	}
	all := quorum.LogOf(entries...)
	requireSnapshot(t, dir, all, all)
}

// TestPublishHookCrashWaitsForPublisher crashes the replica from a
// BeforeAppend hook while a publish is held mid-flight: the crash takes
// the site down at once but returns only after the publish finished, so
// the directory it leaves is final.
func TestPublishHookCrashWaitsForPublisher(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenReplica(0, dir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SnapshotEvery = 3
	started, release := make(chan struct{}), make(chan struct{})
	var renamed atomic.Bool
	r.store.hooks = publishHooks{
		afterTmpWrite: func() error {
			close(started)
			<-release
			return nil
		},
		afterRename: func() error {
			renamed.Store(true)
			return nil
		},
	}
	entries := serialPQEntries(4)
	for _, e := range entries[:3] {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	errKill := errors.New("kill -9 before the write")
	r.Hooks.BeforeAppend = func(int, quorum.Entry) error { return errKill }
	crashed := make(chan error, 1)
	go func() { crashed <- ackOne(r, entries[3]) }()
	for {
		if _, err := r.Handle(Message{Type: MsgPing}); errors.Is(err, ErrDown) {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-crashed; !errors.Is(err, errKill) {
		t.Fatalf("the hook's append returned %v, want the kill", err)
	}
	if !renamed.Load() {
		t.Fatal("the crash returned before the publish in flight finished")
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Fatalf("snap.tmp left behind by the crash: %v", err)
	}
}

// TestPublishRacedAppendsPooled races eight appending clients over one
// pooled transport against a replica that publishes every 3 entries
// into 2-record segments, crashes it mid-stream, and restarts it. The
// publish steps must arrive as whole publishes in sequence — never two
// in flight — and every acknowledged entry must survive.
func TestPublishRacedAppendsPooled(t *testing.T) {
	const (
		workers   = 8
		perWorker = 40
	)
	r, _, err := OpenReplica(0, t.TempDir(), StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.SnapshotEvery = 3
	var (
		traceMu sync.Mutex
		trace   strings.Builder
		removed []int
	)
	note := func(step string) func() error {
		return func() error {
			traceMu.Lock()
			defer traceMu.Unlock()
			trace.WriteString(step)
			return nil
		}
	}
	r.store.hooks = publishHooks{
		afterTmpWrite: note("W"),
		afterTmpSync:  note("S"),
		afterRename:   note("R"),
		afterRemove: func(seg int) error {
			traceMu.Lock()
			defer traceMu.Unlock()
			trace.WriteString("D")
			removed = append(removed, seg)
			return nil
		},
	}
	srv, err := ListenSite("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewPooledTransport([]string{srv.Addr()}, 0)
	t.Cleanup(func() {
		tr.Close()
		srv.Close()
	})

	var (
		wg    sync.WaitGroup
		total atomic.Int64
		half  = make(chan struct{})
		acked = make([][]quorum.Entry, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				e := quorum.Entry{TS: ts(i, 10+w), Op: history.Enq(w%9 + 1)}
				resp, err := tr.RoundTrip(0, Message{Type: MsgAppend, Entries: []quorum.Entry{e}})
				if err != nil || resp.Type != MsgAck {
					return // the crash
				}
				acked[w] = append(acked[w], e)
				if total.Add(1) == workers*perWorker/2 {
					close(half)
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-half:
	case <-finished:
		t.Fatal("the appenders stopped before the crash could race them")
	}
	srv.Kill()
	<-finished
	if _, err := r.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	recovered := r.Log()
	n := 0
	for _, es := range acked {
		for _, e := range es {
			if !recovered.Contains(e.TS) {
				t.Fatalf("acked entry %s lost across the crash", e)
			}
		}
		n += len(es)
	}
	if n == workers*perWorker {
		t.Fatal("the crash raced no appends")
	}

	traceMu.Lock()
	defer traceMu.Unlock()
	if !regexp.MustCompile(`^(WSRD*)+$`).MatchString(trace.String()) {
		t.Fatalf("publish steps interleave — two publishes in flight: %s", trace.String())
	}
	for i := 1; i < len(removed); i++ {
		if removed[i] != removed[i-1]+1 {
			t.Fatalf("segments removed out of order: %v", removed)
		}
	}
}
