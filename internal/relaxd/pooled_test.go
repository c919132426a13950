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

// The socket differential: the same seeded workload driven through the
// pooled multiplexed transport and through the deterministic cluster —
// over real sockets, with a hard kill and a restart in the middle.
// Per-operation results, error strings, observed histories
// (byte-for-byte), per-site logs, and online checker verdicts must be
// identical: the parallel fanout is a pure latency optimization, never
// a semantic one.

// tcpStack is one networked 5-site service under differential test.
type tcpStack struct {
	replicas []*Replica
	servers  []*SiteServer
	addrs    []string
	clients  []*Client
	audit    *relaxcheck.Checker
	observed history.History
}

func openTCPStack(t *testing.T, sites, nclients int) *tcpStack {
	t.Helper()
	lat := core.TaxiSimpleLattice()
	st := &tcpStack{
		audit: relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe, cluster.TaxiLadder(sites))}),
	}
	var err error
	st.replicas, err = OpenSites(t.TempDir(), sites, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	st.servers = make([]*SiteServer, sites)
	st.addrs = make([]string, sites)
	for i, r := range st.replicas {
		s, err := ListenSite("127.0.0.1:0", r)
		if err != nil {
			t.Fatalf("ListenSite %d: %v", i, err)
		}
		st.servers[i] = s
		st.addrs[i] = s.Addr()
	}
	tr := NewPooledTransport(st.addrs, 0)
	t.Cleanup(func() {
		tr.Close()
		for _, s := range st.servers {
			s.Close()
		}
	})
	st.clients = make([]*Client, nclients)
	for i := range st.clients {
		cfg := PQClientConfig(tr)
		cfg.Audit = st.audit
		st.clients[i] = NewClient(cfg, sites+1+i)
	}
	return st
}

func (st *tcpStack) crash(victim int) {
	st.servers[victim].lis.Close()
	st.replicas[victim].Crash()
}

func (st *tcpStack) heal(t *testing.T, victim int) {
	t.Helper()
	if _, err := st.replicas[victim].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	s, err := ListenSite(st.addrs[victim], st.replicas[victim])
	if err != nil {
		t.Fatalf("re-listen on %s: %v", st.addrs[victim], err)
	}
	st.servers[victim] = s
}

func TestDifferentialPooledVsOracle(t *testing.T) {
	const (
		sites   = 5
		clients = 4
		ops     = 160
		seed    = 11
		crashAt = 50
		healAt  = 110
		victim  = 2
	)

	lat := core.TaxiSimpleLattice()
	oracleAudit := relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe, cluster.TaxiLadder(sites))})
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

	pooled := openTCPStack(t, sites, clients)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		switch i {
		case crashAt:
			oracle.Crash(victim)
			pooled.crash(victim)
		case healAt:
			oracle.Restore(victim)
			pooled.heal(t, victim)
		}
		var inv history.Invocation
		if rng.Float64() < 0.45 {
			inv = history.DeqInv()
		} else {
			inv = history.EnqInv(rng.Intn(9) + 1)
		}
		cl := i % clients
		wantOp, wantErr := oracleClients[cl].Execute(inv)
		gotOp, gotErr := pooled.clients[cl].Execute(inv)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("op %d (%s): oracle err %v, got err %v", i, inv, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("op %d (%s): error text diverges:\noracle: %s\n   got: %s", i, inv, wantErr, gotErr)
			}
			continue
		}
		if !gotOp.Equal(wantOp) {
			t.Fatalf("op %d (%s): oracle answers %s, got %s", i, inv, wantOp, gotOp)
		}
		pooled.observed = append(pooled.observed, gotOp)
	}

	// Observed histories: byte-identical through the export encoding.
	var wantBuf, gotBuf bytes.Buffer
	if err := history.WriteLines(&wantBuf, oracle.Observed()); err != nil {
		t.Fatal(err)
	}
	if err := history.WriteLines(&gotBuf, pooled.observed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("observed history diverges from the oracle:\noracle:\n%s\npooled:\n%s", wantBuf.String(), gotBuf.String())
	}
	// Per-site logs: identical entry-for-entry.
	for i := 0; i < sites; i++ {
		if !pooled.replicas[i].Log().Equal(oracle.SiteLog(i)) {
			t.Fatalf("site %d log diverges from the oracle", i)
		}
	}
	// Checker verdicts: same level, same step count, clean.
	if pooled.audit.Level() != oracleAudit.Level() {
		t.Fatalf("checker level %q, oracle %q", pooled.audit.Level(), oracleAudit.Level())
	}
	if pooled.audit.Steps() != oracleAudit.Steps() {
		t.Fatalf("checker steps %d, oracle %d", pooled.audit.Steps(), oracleAudit.Steps())
	}
	if v := pooled.audit.Violation(); v != nil {
		t.Fatalf("checker violation: %+v", v)
	}
	if v := oracleAudit.Violation(); v != nil {
		t.Fatalf("oracle checker violation: %+v", v)
	}
	certifyQ1Q2(t, "final merged log", oracle.MergedLog().History())
}

// TestPooledConcurrentClients exercises the mux layer the way the
// long-haul soak does: many goroutine clients sharing one pooled
// transport, whole ops serialized by a global mutex (the oracle's
// concurrency grain), so concurrent MsgGetLog/MsgAppend frames from
// the protocol fanout interleave on the shared per-site connections.
func TestPooledConcurrentClients(t *testing.T) {
	const (
		sites    = 5
		nclients = 6
		// A multiple of invAt's period, so every client runs Enq, Enq,
		// Deq, … and no interleaving dequeues from an empty queue.
		perClient = 21
	)
	st := openTCPStack(t, sites, nclients)

	opMu := make(chan struct{}, 1)
	errs := make(chan error, nclients)
	for c := 0; c < nclients; c++ {
		go func(c int) {
			cl := st.clients[c]
			for i := 0; i < perClient; i++ {
				opMu <- struct{}{}
				_, err := cl.Execute(invAt(c*perClient + i))
				<-opMu
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < nclients; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("client failed: %v", err)
		}
	}
	if v := st.audit.Violation(); v != nil {
		t.Fatalf("checker violation: %+v", v)
	}
	logs := make([]quorum.Log, sites)
	for i, r := range st.replicas {
		logs[i] = r.Log()
	}
	merged := quorum.Merge(logs...)
	if merged.Len() != nclients*perClient {
		t.Fatalf("merged log holds %d entries, want %d", merged.Len(), nclients*perClient)
	}
	certifyQ1Q2(t, "merged log under concurrent clients", merged.History())
}
