package relaxd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
	}
	kill := func(fired *bool) error {
		if *fired {
			return nil
		}
		*fired = true
		return errors.New("kill -9 mid-transfer")
	}
	var points []killPoint
	var fired bool
	points = append(points, killPoint{
		name:      "after-fetch",
		hooks:     JoinHooks{AfterFetch: func(int) error { return kill(&fired) }},
		recovered: 0,
	})
	points = append(points, killPoint{
		name:      "after-snapshot-install",
		hooks:     JoinHooks{AfterInstall: func() error { return kill(&fired) }},
		recovered: shape.SnapshotEntries + shape.WALEntries,
	})
	points = append(points, killPoint{
		name:      "before-ready",
		hooks:     JoinHooks{BeforeReady: func() error { return kill(&fired) }},
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
			// Restart after the mid-transfer kill: recovery must land on
			// a certified prefix of the shipped state — or, before any
			// install, on the empty log.
			info, err := replicas[victim].Restart()
			if err != nil {
				t.Fatalf("restart after %s: %v", p.name, err)
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
