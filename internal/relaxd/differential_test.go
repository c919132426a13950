package relaxd

import (
	"bytes"
	"math/rand"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/specs"
)

// The differential test: the same seeded workload driven through the
// networked service (in-process transport, real codec, durable WALs)
// and through the deterministic cluster — the model oracle. Every
// per-operation result, the final merged logs, the observed histories
// (byte-for-byte through WriteLines), and the online checker verdicts
// must be identical. Tier-1: no TCP, no sleeps, one goroutine.
func TestDifferentialNetVsOracle(t *testing.T) {
	const (
		sites   = 5
		clients = 4
		ops     = 200
		seed    = 7
		crashAt = 60  // both systems lose site 2 here...
		healAt  = 140 // ...and get it back here
		victim  = 2
	)

	lat := core.TaxiSimpleLattice()
	oracleAudit := relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe)})
	netAudit := relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe)})

	oracle := cluster.New(cluster.Config{
		Sites:   sites,
		Quorums: quorum.TaxiAssignments(sites)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
		Audit:   oracleAudit,
	})
	oracleClients := make([]*cluster.Client, clients)
	for i := range oracleClients {
		oracleClients[i] = oracle.Client(0)
	}

	// Durable replicas so a crash-restart recovers the full log — the
	// semantics cluster.Crash/Restore give the oracle for free.
	replicas, err := OpenSites(t.TempDir(), sites, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	defer func() {
		for _, r := range replicas {
			r.Close()
		}
	}()
	tr := NewLocal(replicas)
	netClients := make([]*Client, clients)
	for i := range netClients {
		cfg := PQClientConfig(tr)
		cfg.Audit = netAudit
		// Clock sites sites+1, sites+2, ... — cluster.Client numbering.
		netClients[i] = NewClient(cfg, sites+1+i)
	}

	rng := rand.New(rand.NewSource(seed))
	var netObserved history.History
	for i := 0; i < ops; i++ {
		switch i {
		case crashAt:
			oracle.Crash(victim)
			replicas[victim].Crash()
		case healAt:
			oracle.Restore(victim)
			if _, err := replicas[victim].Restart(); err != nil {
				t.Fatalf("op %d: restart: %v", i, err)
			}
		}
		var inv history.Invocation
		if rng.Float64() < 0.45 {
			inv = history.DeqInv()
		} else {
			inv = history.EnqInv(rng.Intn(9) + 1)
		}
		cl := i % clients
		wantOp, wantErr := oracleClients[cl].Execute(inv)
		gotOp, gotErr := netClients[cl].Execute(inv)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("op %d (%s): oracle err %v, net err %v", i, inv, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("op %d (%s): error text diverges:\noracle: %s\n   net: %s", i, inv, wantErr, gotErr)
			}
			continue
		}
		if !gotOp.Equal(wantOp) {
			t.Fatalf("op %d (%s): oracle answers %s, net answers %s", i, inv, wantOp, gotOp)
		}
		netObserved = append(netObserved, gotOp)
	}

	// Observed histories: byte-identical through the export encoding.
	var wantBuf, gotBuf bytes.Buffer
	if err := history.WriteLines(&wantBuf, oracle.Observed()); err != nil {
		t.Fatal(err)
	}
	if err := history.WriteLines(&gotBuf, netObserved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("observed histories diverge:\noracle:\n%s\nnet:\n%s", wantBuf.String(), gotBuf.String())
	}

	// Site logs and the merged log: identical entry-for-entry.
	logs := make([]quorum.Log, sites)
	for i, r := range replicas {
		logs[i] = r.Log()
		if !logs[i].Equal(oracle.SiteLog(i)) {
			t.Fatalf("site %d log diverges:\noracle: %s\n   net: %s", i, oracle.SiteLog(i), logs[i])
		}
	}
	if !quorum.Merge(logs...).Equal(oracle.MergedLog()) {
		t.Fatalf("merged logs diverge")
	}

	// Checker verdicts: same level, same step count, both clean.
	if oracleAudit.Level() != netAudit.Level() {
		t.Fatalf("checker levels diverge: oracle %q, net %q", oracleAudit.Level(), netAudit.Level())
	}
	if oracleAudit.Steps() != netAudit.Steps() {
		t.Fatalf("checker steps diverge: oracle %d, net %d", oracleAudit.Steps(), netAudit.Steps())
	}
	if v := netAudit.Violation(); v != nil {
		t.Fatalf("net checker violation: %+v", v)
	}
	if v := oracleAudit.Violation(); v != nil {
		t.Fatalf("oracle checker violation: %+v", v)
	}

	// And the merged state itself certifies at the strongest rung.
	certifyQ1Q2(t, "final merged log", oracle.MergedLog().History())
}
