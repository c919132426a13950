package relaxd

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// Snapshot-shipping battery: a wiped site rebuilds via MsgFetchState
// (published snapshot + WAL suffix from a peer), must certify the
// shipped state before serving, and a kill-restart at every transfer
// step lands on the pre-join store or the whole certified state — with
// the deterministic cluster as the model oracle, seeded from the
// durable logs via LoadSiteLog.

// shipCluster opens a durable 5-site service, runs ops through it, and
// returns the pieces the shipping tests share.
func shipCluster(t *testing.T, snapshotEvery, ops int) (string, []*Replica, *Local, *Client) {
	t.Helper()
	const sites = 5
	base := t.TempDir()
	replicas, err := OpenSites(base, sites, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.Close()
		}
	})
	for _, r := range replicas {
		r.SnapshotEvery = snapshotEvery
	}
	tr := NewLocal(replicas)
	cl := NewClient(PQClientConfig(tr), sites+1)
	for i := 0; i < ops; i++ {
		if _, err := cl.Execute(invAt(i)); err != nil {
			t.Fatalf("op %d (%s): %v", i, invAt(i), err)
		}
		// Each publish captures exactly the log at its due point, so the
		// snapshot/WAL split a join ships is the same every run.
		for _, r := range replicas {
			r.flush()
		}
	}
	return base, replicas, tr, cl
}

// wipe hard-kills a replica and destroys its store directory — the
// total-loss scenario snapshot shipping exists for.
func wipe(t *testing.T, base string, r *Replica) {
	t.Helper()
	r.Crash()
	if err := os.RemoveAll(filepath.Join(base, fmt.Sprintf("site%d", r.Site()))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Restart(); err != nil {
		t.Fatalf("restart over wiped dir: %v", err)
	}
	if r.Log().Len() != 0 {
		t.Fatalf("wiped site restarted with %d entries", r.Log().Len())
	}
}

func TestSnapshotShippingRebuildsWipedSite(t *testing.T) {
	const (
		sites  = 5
		victim = 2
		ops    = 24
	)
	base, replicas, tr, cl := shipCluster(t, 10, ops)
	want := replicas[0].Log()
	if want.Len() != ops {
		t.Fatalf("donor holds %d entries, want %d", want.Len(), ops)
	}

	wipe(t, base, replicas[victim])
	info, err := replicas[victim].JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
	if err != nil {
		t.Fatalf("JoinFrom: %v", err)
	}
	if info.SnapshotEntries == 0 || info.WALEntries == 0 {
		t.Fatalf("JoinInfo %+v: want both a shipped snapshot and a WAL suffix", info)
	}
	if info.SnapshotEntries+info.WALEntries != ops {
		t.Fatalf("JoinInfo %+v: shipped %d entries, want %d", info, info.SnapshotEntries+info.WALEntries, ops)
	}
	if got := replicas[victim].Log(); !got.Equal(want) {
		t.Fatalf("joined site log diverges:\n got %s\nwant %s", got, want)
	}
	certifyQ1Q2(t, "shipped state", replicas[victim].Log().History())
	// The wiped store's one segment holds no record, so the join's seal
	// keeps it instead of rotating to a fresh one.
	if segs := segmentsOnDisk(t, filepath.Join(base, fmt.Sprintf("site%d", victim))); len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("joined store holds segments %v, want wal-000000 alone", segs)
	}

	// The transfer must be durable: a crash right after the join
	// recovers the full shipped state from the victim's own store.
	replicas[victim].Crash()
	rinfo, err := replicas[victim].Restart()
	if err != nil {
		t.Fatalf("restart after join: %v", err)
	}
	if got := replicas[victim].Log(); !got.Equal(want) {
		t.Fatalf("shipped state not durable: recovered %d entries (info %+v), want %d",
			got.Len(), rinfo, want.Len())
	}
	if rinfo.SnapshotEntries != want.Len() || rinfo.WALEntries != 0 {
		t.Fatalf("recovery info %+v: the join publishes one snapshot of all %d entries", rinfo, want.Len())
	}

	// Model-oracle cross-check (cluster.LoadSiteLog): both systems
	// answer the next invocation identically from the recovered logs.
	oracle := cluster.New(cluster.Config{
		Sites:   sites,
		Quorums: quorum.TaxiAssignments(sites)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
	})
	for i, r := range replicas {
		oracle.LoadSiteLog(i, r.Log())
	}
	probe := invAt(ops)
	wantOp, err := oracle.Client(0).Execute(probe)
	if err != nil {
		t.Fatalf("oracle probe: %v", err)
	}
	gotOp, err := cl.Execute(probe)
	if err != nil {
		t.Fatalf("probe after join: %v", err)
	}
	if !gotOp.Equal(wantOp) {
		t.Fatalf("joined service answers %s, oracle answers %s", gotOp, wantOp)
	}
}

func TestShipKillRestartAtEveryTransferStep(t *testing.T) {
	const victim = 2
	base, replicas, tr, _ := shipCluster(t, 10, 24)
	donor := replicas[0].Log()

	// Learn the transfer shape once so each kill point's recovery is exact.
	wipe(t, base, replicas[victim])
	shape, err := replicas[victim].JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
	if err != nil {
		t.Fatalf("shape join: %v", err)
	}
	if shape.WALEntries < 2 {
		t.Fatalf("transfer shape %+v: want a WAL suffix of at least 2 for boundary kills", shape)
	}

	type killPoint struct {
		name  string
		hooks JoinHooks
		// recovered is the exact entry count restart must land on.
		recovered int
		// staged says the kill finds local ⊔ shipped staged in snap.tmp.
		staged bool
	}
	tmp := filepath.Join(base, fmt.Sprintf("site%d", victim), "snap.tmp")
	var fired, sawTmp bool
	kill := func() error {
		if fired {
			return nil
		}
		fired = true
		_, err := os.Stat(tmp)
		sawTmp = err == nil
		return errors.New("kill -9 mid-transfer")
	}
	var points []killPoint
	points = append(points, killPoint{
		name:      "after-fetch",
		hooks:     JoinHooks{AfterFetch: func(int) error { return kill() }},
		recovered: 0,
		staged:    true,
	})
	points = append(points, killPoint{
		name:      "after-snapshot-install",
		hooks:     JoinHooks{AfterInstall: kill},
		recovered: shape.SnapshotEntries + shape.WALEntries,
	})
	points = append(points, killPoint{
		name:      "before-ready",
		hooks:     JoinHooks{BeforeReady: kill},
		recovered: shape.SnapshotEntries + shape.WALEntries,
	})

	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			wipe(t, base, replicas[victim])
			fired = false
			_, err := replicas[victim].JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify(), Hooks: p.hooks})
			if err == nil {
				t.Fatal("join survived its kill point")
			}
			if !fired {
				t.Fatal("kill point never fired")
			}
			if sawTmp != p.staged {
				t.Fatalf("snap.tmp present at the kill: %v, want %v", sawTmp, p.staged)
			}
			// Restart after the mid-transfer kill: recovery must land on
			// a certified prefix of the shipped state — or, before any
			// install, on the empty log.
			info, err := replicas[victim].Restart()
			if err != nil {
				t.Fatalf("restart after %s: %v", p.name, err)
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("snap.tmp survived the restart: %v", err)
			}
			recovered := replicas[victim].Log()
			if recovered.Len() != p.recovered {
				t.Fatalf("recovered %d entries (info %+v), want %d", recovered.Len(), info, p.recovered)
			}
			if !donor.HasPrefix(recovered) {
				t.Fatalf("recovered log is not a prefix of the donor state:\n%s", recovered)
			}
			certifyQ1Q2(t, "post-kill recovered state", recovered.History())

			// And the interrupted transfer is resumable: a clean second
			// join lands on the full donor state.
			if _, err := replicas[victim].JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()}); err != nil {
				t.Fatalf("resumed join: %v", err)
			}
			if got := replicas[victim].Log(); !got.Equal(donor) {
				t.Fatalf("resumed join diverges:\n got %s\nwant %s", got, donor)
			}
		})
	}
}

func TestShipRefusesUncertifiedState(t *testing.T) {
	// A donor whose log is poison: a dequeue of an element never
	// enqueued escapes every taxi constraint set.
	donor, _, err := OpenReplica(0, "", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	donor.log = quorum.LogOf(
		quorum.Entry{TS: ts(1, 0), Op: history.Enq(1)},
		quorum.Entry{TS: ts(2, 0), Op: history.DeqOk(5)},
	)
	victim, _, err := OpenReplica(1, t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	tr := NewLocal([]*Replica{donor, victim})

	_, err = victim.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("join accepted uncertified state: %v", err)
	}
	if victim.Log().Len() != 0 {
		t.Fatalf("refused join still installed %d entries", victim.Log().Len())
	}
	// The victim is untouched and can still join from an honest donor.
	donor.log = quorum.LogOf(
		quorum.Entry{TS: ts(1, 0), Op: history.Enq(1)},
		quorum.Entry{TS: ts(2, 0), Op: history.DeqOk(1)},
	)
	info, err := victim.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
	if err != nil {
		t.Fatalf("honest join: %v", err)
	}
	if info.SnapshotEntries+info.WALEntries != 2 || victim.Log().Len() != 2 {
		t.Fatalf("honest join shipped %+v, log %d", info, victim.Log().Len())
	}
}

// A join lands on local ⊔ shipped, durably: entries the joiner's own
// store had acknowledged survive the publish, and the joined store
// reopens as one snapshot of the whole installed log.
func TestJoinOverNonEmptyStoreKeepsLocalEntries(t *testing.T) {
	local := quorum.Entry{TS: ts(1, 6), Op: history.Enq(3)}
	shipped := quorum.Entry{TS: ts(2, 7), Op: history.Enq(9)}
	ack := func(r *Replica, e quorum.Entry) {
		t.Helper()
		resp, err := r.Handle(Message{Type: MsgAppend, Entries: []quorum.Entry{e}})
		if err != nil || resp.Type != MsgAck || resp.N != 1 {
			t.Fatalf("site %d append: %+v, %v", r.Site(), resp, err)
		}
	}
	open := func(site int, dir string) *Replica {
		t.Helper()
		r, _, err := OpenReplica(site, dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	donor := open(0, t.TempDir())
	donor.SnapshotEvery = 1
	ack(donor, shipped)
	// The ack does not wait for the publish it started; the join below
	// expects the donor's entry in its published snapshot.
	donor.flush()
	victim := open(1, t.TempDir())
	ack(victim, local)
	ephemeral := open(2, "")
	ack(ephemeral, local)
	tr := NewLocal([]*Replica{donor, victim, ephemeral})
	installed := quorum.LogOf(local, shipped)

	for _, r := range []*Replica{victim, ephemeral} {
		info, err := r.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
		if err != nil {
			t.Fatalf("site %d JoinFrom: %v", r.Site(), err)
		}
		if info.Peer != 0 || info.SnapshotEntries != 1 || info.WALEntries != 0 {
			t.Fatalf("site %d JoinInfo %+v: want the donor's one-entry snapshot", r.Site(), info)
		}
		if got := r.Log(); !got.Equal(installed) {
			t.Fatalf("site %d joined onto %s, want local ⊔ shipped %s", r.Site(), got, installed)
		}
	}

	victim.Crash()
	rinfo, err := victim.Restart()
	if err != nil {
		t.Fatalf("restart after join: %v", err)
	}
	if got := victim.Log(); !got.Equal(installed) {
		t.Fatalf("the join lost acknowledged entries from disk: recovered %s, want %s", got, installed)
	}
	if rinfo.SnapshotEntries != installed.Len() || rinfo.WALEntries != 0 {
		t.Fatalf("recovery info %+v, want a %d-entry snapshot and an empty WAL", rinfo, installed.Len())
	}
}

// poisonedDonor is an ephemeral site whose log escapes every taxi
// constraint set: it dequeues an element never enqueued.
func poisonedDonor(t *testing.T, site int) *Replica {
	t.Helper()
	r, _, err := OpenReplica(site, "", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.log = quorum.LogOf(
		quorum.Entry{TS: ts(1, 0), Op: history.Enq(1)},
		quorum.Entry{TS: ts(2, 0), Op: history.DeqOk(5)},
	)
	return r
}

// honestDonor is an ephemeral site holding entries.
func honestDonor(t *testing.T, site int, entries []quorum.Entry) *Replica {
	t.Helper()
	r, _, err := OpenReplica(site, "", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.log = quorum.LogOf(entries...)
	return r
}

// publishedReplica opens a durable replica in dir holding entries: a
// published snapshot, sealed segments and a WAL suffix on disk.
func publishedReplica(t *testing.T, site int, dir string, entries []quorum.Entry) *Replica {
	t.Helper()
	r, _, err := OpenReplica(site, dir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	r.SnapshotEvery = 3
	for _, e := range entries {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
		r.flush()
	}
	return r
}

// dirImage maps every file in dir to its contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(ents))
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[de.Name()] = string(b)
	}
	return img
}

// names lists a directory image's file names in order.
func names(img map[string]string) []string {
	out := make([]string, 0, len(img))
	for name := range img {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// A poisoned donor first in site order does not block the join: the
// joiner moves on to the next peer, and reports the one it used. When
// no peer certifies, the refusal still wraps ErrCorrupt.
func TestJoinSkipsUncertifiedDonor(t *testing.T) {
	honest := serialPQEntries(6)
	victim, _, err := OpenReplica(1, t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	tr := NewLocal([]*Replica{poisonedDonor(t, 0), victim, honestDonor(t, 2, honest)})
	info, err := victim.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()})
	if err != nil {
		t.Fatalf("join with an honest site 2: %v", err)
	}
	if info.Peer != 2 || info.SnapshotEntries+info.WALEntries != len(honest) {
		t.Fatalf("JoinInfo %+v: want site 2's %d entries", info, len(honest))
	}
	if want := quorum.LogOf(honest...); !victim.Log().Equal(want) {
		t.Fatalf("joined onto %s, want site 2's log %s", victim.Log(), want)
	}

	alone, _, err := OpenReplica(1, t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	tr = NewLocal([]*Replica{poisonedDonor(t, 0), alone, poisonedDonor(t, 2)})
	if _, err := alone.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("join with no certifying peer returned %v, want ErrCorrupt", err)
	}
	if alone.Log().Len() != 0 {
		t.Fatalf("refused joins installed %d entries", alone.Log().Len())
	}
}

// The join is staged while it is certified, and published only after:
// the staging write waits for Certify to start, and while Certify
// blocks, snap.tmp holds the staged join but the published snapshot and
// every segment are exactly as before — no seal, no rename. Once
// Certify returns nil, the snapshot lands.
func TestJoinStagesWhileCertifying(t *testing.T) {
	entries := serialPQEntries(7)
	dir := t.TempDir()
	victim := publishedReplica(t, 1, dir, entries[:4])
	before := dirImage(t, dir)
	if _, ok := before["snap"]; !ok {
		t.Fatal("no published snapshot to keep")
	}
	inCertify, staged, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	victim.store.hooks.afterTmpWrite = func() error {
		select {
		case <-inCertify:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the staging ran before certification")
		}
	}
	victim.store.hooks.afterTmpSync = func() error {
		close(staged)
		return nil
	}
	certify := PQCertify()
	cfg := JoinConfig{
		Transport: NewLocal([]*Replica{honestDonor(t, 0, entries), victim}),
		Certify: func(h history.History) error {
			close(inCertify)
			<-release
			return certify(h)
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := victim.JoinFrom(cfg)
		done <- err
	}()
	<-inCertify
	select {
	case <-staged:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatalf("nothing was staged while certification ran: %v", <-done)
	}
	during := dirImage(t, dir)
	_, tmp := during["snap.tmp"]
	delete(during, "snap.tmp")
	if !tmp || !maps.Equal(during, before) {
		close(release)
		<-done
		t.Fatalf("while certifying, the store holds %v (snap.tmp: %v); want %v plus snap.tmp, unchanged", names(during), tmp, names(before))
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("JoinFrom: %v", err)
	}
	installed := quorum.LogOf(entries...)
	requireSnapshot(t, dir, installed, installed)
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Fatalf("snap.tmp left after the join: %v", err)
	}
}

// A refused join stages local ⊔ shipped, then discards it: the
// directory — every file name and byte — and the resident log are
// exactly what they were.
func TestJoinRefusalLeavesStoreUntouched(t *testing.T) {
	dir := t.TempDir()
	victim := publishedReplica(t, 1, dir, serialPQEntries(4))
	before, log := dirImage(t, dir), victim.Log()
	staged := false
	victim.store.hooks.afterTmpSync = func() error {
		staged = true
		return nil
	}
	tr := NewLocal([]*Replica{poisonedDonor(t, 0), victim})
	if _, err := victim.JoinFrom(JoinConfig{Transport: tr, Certify: PQCertify()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("join accepted uncertified state: %v", err)
	}
	if !staged {
		t.Fatal("the refused join staged nothing")
	}
	if after := dirImage(t, dir); !maps.Equal(after, before) {
		t.Fatalf("a refused join changed the store: %v, was %v", names(after), names(before))
	}
	if !victim.Log().Equal(log) {
		t.Fatalf("a refused join changed the resident log to %s", victim.Log())
	}
}

// MsgFetchState ships the donor's resident entries uncopied, so a state
// served over a PooledTransport while appends extend the donor in place
// must still be an exact prefix of the donor's log. At 160 bytes (about
// 16 entries) a frame, the donor is still streaming while the appends go
// on.
func TestShipStateRacesAppendsPooled(t *testing.T) {
	lowerStreamFrames(t, 160)
	r, _, err := OpenReplica(0, t.TempDir(), StoreOptions{SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.SnapshotEvery = 5
	srv, err := ListenSite("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewPooledTransport([]string{srv.Addr()}, 0)
	t.Cleanup(func() {
		tr.Close()
		srv.Close()
		r.Close()
	})
	entries := serialPQEntries(200)
	appended := make(chan error, 1)
	go func() {
		for _, e := range entries {
			if err := ackOne(r, e); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	var shipped [][]quorum.Entry
	for running := true; running; {
		select {
		case err := <-appended:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		resp, err := tr.RoundTrip(0, Message{Type: MsgFetchState})
		if err != nil || resp.Type != MsgState {
			t.Fatalf("state fetch: %+v, %v", resp, err)
		}
		shipped = append(shipped, append(resp.Entries, resp.Wal...))
	}
	final, raced := r.Log(), false
	for _, s := range shipped {
		if len(s) > final.Len() {
			t.Fatalf("shipped %d entries, the donor holds %d", len(s), final.Len())
		}
		for i, e := range s {
			if want := final.Entry(i); e.TS != want.TS || !e.Op.Equal(want.Op) {
				t.Fatalf("shipped entry %d is %s, the donor's is %s", i, e, want)
			}
		}
		raced = raced || (len(s) > 0 && len(s) < len(entries))
	}
	if !raced {
		t.Fatal("no state fetch raced the appends")
	}
}
