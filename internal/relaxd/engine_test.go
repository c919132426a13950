package relaxd

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/value"
)

// What a relaxd client gets from running the shared protocol engine
// rather than a copy of it: the sim's observability and its error
// vocabulary, and the sim's view cache — which therefore has to be
// sound over views decoded from the network.

// TestClientReportsBehavior pins the observable the sim always had and
// the networked client lacked: which behavior φ(C) each operation ran
// under, as the "behavior" attribute of its span, and a counter of the
// operations that ran degraded.
func TestClientReportsBehavior(t *testing.T) {
	replicas, err := OpenSites("", 3, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PQClientConfig(NewLocal(replicas))
	cfg.Metrics = obs.NewRegistry()
	cfg.Spans = trace.NewTracer("client", nil)
	cl := NewClient(cfg, 4)
	cl.Degrade = true

	if _, err := cl.Execute(history.EnqInv(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ExecuteUnder(history.EnqInv(6), quorum.TaxiAssignments(3)["none"], "none"); err != nil {
		t.Fatal(err)
	}
	replicas[0].Crash()
	replicas[1].Crash()
	if _, err := cl.Execute(history.DeqInv()); err != nil {
		t.Fatalf("degraded Deq at the one live site: %v", err)
	}

	var behaviors []string
	for _, sp := range cfg.Spans.Spans() {
		if sp.Name == "relaxd.op" {
			b, _ := sp.Attr("behavior")
			behaviors = append(behaviors, b)
		}
	}
	if want := []string{"preferred-quorum", "level:none", "all-reachable"}; fmt.Sprint(behaviors) != fmt.Sprint(want) {
		t.Fatalf("span behaviors %v, want %v", behaviors, want)
	}
	snap := cfg.Metrics.Snapshot()
	if n, _ := snap.Counter("relaxd.execute.degraded.Deq"); n != 1 {
		t.Fatalf("relaxd.execute.degraded.Deq = %d, want 1", n)
	}
	if _, ok := snap.Counter("relaxd.execute.degraded.Enq"); ok {
		t.Fatal("an Enq under a full quorum was counted as degraded")
	}
}

// TestClientUninterpretableView: a view η assigns no state to is
// refused with the one sentinel the simulated cluster also returns.
func TestClientUninterpretableView(t *testing.T) {
	replicas, err := OpenSites("", 3, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PQClientConfig(NewLocal(replicas))
	cfg.Fold = quorum.NewFoldEval(nil, func(value.Value, history.Op) []value.Value { return nil })
	_, err = NewClient(cfg, 4).Execute(history.EnqInv(1))
	if !errors.Is(err, cluster.ErrUninterpretable) {
		t.Fatalf("got %v, want cluster.ErrUninterpretable", err)
	}
}

// TestViewCacheSoundOverRepairedLogs holds the engine's incremental η
// to the definition over the durable accessor, where views can shrink:
// in seeded runs of three degrading clients, sites are killed and
// restarted onto WALs whose tails were torn off, so a client's next
// view may be shorter than, or fork from, everything it has cached. At
// every operation the state handed to the responder must be
// Fold.EvalLog of the merged view of the live sites, from scratch.
func TestViewCacheSoundOverRepairedLogs(t *testing.T) {
	const sites = 3
	fold := quorum.PQFold()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			replicas, err := OpenSites(dir, sites, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, r := range replicas {
					r.Close()
				}
			}()
			up := []bool{true, true, true}
			var handed value.Value
			clients := make([]*Client, 3)
			for i := range clients {
				cfg := PQClientConfig(NewLocal(replicas))
				cfg.Respond = func(s value.Value, inv history.Invocation) (history.Op, bool) {
					handed = s
					return cluster.PQResponder(s, inv)
				}
				clients[i] = NewClient(cfg, sites+1+i)
				clients[i].Degrade = true
			}
			rollbacks := 0
			for i := 0; i < 400; i++ {
				s := rng.Intn(sites)
				switch r := rng.Intn(8); {
				case r == 0 && up[s]:
					replicas[s].Crash()
					up[s] = false
				case r <= 2 && !up[s]:
					before := tearWALTail(t, filepath.Join(dir, fmt.Sprintf("site%d", s)), rng.Intn(40))
					info, err := replicas[s].Restart()
					if err != nil {
						t.Fatalf("op %d: restart site %d: %v", i, s, err)
					}
					if info.WALEntries < before {
						rollbacks++
					}
					up[s] = true
				}
				var logs []quorum.Log
				for s, r := range replicas {
					if up[s] {
						logs = append(logs, r.Log())
					}
				}
				view := quorum.Merge(logs...)
				want := fold.EvalLog(view)
				inv := history.EnqInv(rng.Intn(9) + 1)
				if rng.Intn(3) == 0 {
					inv = history.DeqInv()
				}
				handed = nil
				_, err := clients[rng.Intn(len(clients))].Execute(inv)
				if len(logs) == 0 {
					if !errors.Is(err, cluster.ErrUnavailable) {
						t.Fatalf("op %d with every site down: %v", i, err)
					}
					continue
				}
				if err != nil && !errors.Is(err, cluster.ErrNoResponse) {
					t.Fatalf("op %d (%s): %v", i, inv, err)
				}
				if len(want) != 1 || handed == nil || handed.Key() != want[0].Key() {
					t.Fatalf("op %d (%s): engine η = %v, scratch η = %v\nview %s", i, inv, handed, want, view)
				}
			}
			if rollbacks <= 8 {
				t.Fatalf("run too tame: only %d restarts onto a shorter log", rollbacks)
			}
		})
	}

	// The same fault, one step at a time: what a client knows of a site
	// is void once the site has restarted, in step 1 and in step 3.
	t.Run("restart-voids-the-frontier", func(t *testing.T) {
		dir := t.TempDir()
		replicas, err := OpenSites(dir, sites, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, r := range replicas {
				r.Close()
			}
		}()
		local := NewLocal(replicas)
		rt := &recordingTransport{Transport: local}
		c := pqClient(rt, sites+1)
		for i := 0; i < 10; i++ {
			mustExecute(t, c, history.EnqInv(i%9+1))
		}
		// restartShorter kills site 2 and restarts it onto a WAL whose
		// tail was torn off; it returns how many entries survived.
		restartShorter := func() int {
			replicas[2].Crash()
			before := tearWALTail(t, filepath.Join(dir, "site2"), 40)
			info, err := replicas[2].Restart()
			if err != nil {
				t.Fatal(err)
			}
			if info.WALEntries >= before {
				t.Fatalf("tear lost nothing: %d entries before, %d after", before, info.WALEntries)
			}
			return info.WALEntries
		}

		// Step 1. The old frontier is refused whether or not the shorter
		// log could satisfy it by count and timestamp.
		old := c.sites.known[2]
		short := restartShorter()
		oldMax, _ := old.log.MaxTS()
		for _, frontier := range []Message{
			{Type: MsgGetLog, Inc: old.inc, Have: old.log.Len(), Max: oldMax},
			{Type: MsgGetLog, Inc: old.inc, Have: short, Max: old.log.Entry(short - 1).TS},
		} {
			resp, err := local.RoundTrip(2, frontier)
			if err != nil || resp.Type != MsgLog || resp.Delta || len(resp.Entries) != short || resp.Inc == old.inc || resp.Inc == 0 {
				t.Fatalf("restarted site answered the old incarnation's frontier %+v with %+v, %v", frontier, resp, err)
			}
		}
		// Step 3. A delta relative to the old incarnation is refused, not
		// acknowledged, and not applied.
		probe := quorum.Entry{TS: quorum.Timestamp{Time: 99, Site: 9}, Op: history.Enq(1)}
		resp, err := local.RoundTrip(2, Message{Type: MsgAppend, Inc: old.inc, Entries: []quorum.Entry{probe}})
		if err != nil || resp.Type != MsgStale || replicas[2].Log().Len() != short {
			t.Fatalf("stale delta: reply %+v, %v; site holds %d entries, want %d", resp, err, replicas[2].Log().Len(), short)
		}

		// End to end, with the restart between step 1 and step 3 of one
		// operation: the refusal makes the client send the whole view, so
		// the acknowledgement still means the site holds all of it — the
		// lost entries are durable again.
		mustExecute(t, c, history.EnqInv(3)) // re-learn site 2 (and repair it)
		fired := false
		c.Hooks.AfterStep2 = func() {
			if !fired {
				fired = true
				restartShorter()
			}
		}
		rt.log = rt.log[:0]
		mustExecute(t, c, history.EnqInv(4))
		sent := rt.of(MsgAppend, 2)
		if len(sent) != 2 || sent[0].resp.Type != MsgStale || sent[1].req.Inc != 0 || sent[1].resp.Type != MsgAck {
			t.Fatalf("site 2 restarted mid-operation: step 3 went %+v", sent)
		}
		replicas[2].Crash()
		if _, err := replicas[2].Restart(); err != nil {
			t.Fatal(err)
		}
		if got, want := replicas[2].Log(), replicas[0].Log(); got.Len() != 12 || !got.Equal(want) {
			t.Fatalf("after the resend site 2 recovers\n%s\nwant site 0's\n%s", got, want)
		}
		// And the client's next view is the sites' logs, from scratch.
		if got := c.sites.Read(); len(got) != sites || !got[2].Log.Equal(replicas[2].Log()) {
			t.Fatalf("view of site 2 after the resend: %+v", got)
		}
	})
}

// tearWALTail cuts up to n bytes off the end of the store's active WAL
// segment — the torn final write of a kill -9 — and returns how many
// entries the segment chain held before the cut.
func tearWALTail(t *testing.T, dir string, n int) (entriesBefore int) {
	t.Helper()
	s, log, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOnDisk(t, dir)
	active := filepath.Join(dir, segName(segs[len(segs)-1]))
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if size := st.Size() - int64(n); size >= headerLen {
		if err := os.Truncate(active, size); err != nil {
			t.Fatal(err)
		}
	}
	return log.Len()
}
