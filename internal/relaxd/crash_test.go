package relaxd

import (
	"errors"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/specs"
)

// Kill-and-restart battery: a replica is hard-killed at every protocol
// step — after the step-1 reads, mid step-2 evaluation, before the WAL
// append, and between the WAL append and the ack — and after recovery
// the relaxation checker must certify the recovered state at the
// claimed rung, with the deterministic cluster (seeded from the
// recovered durable logs via LoadSiteLog) as the model oracle.

// invAt is the deterministic battery workload: two enqueues then a
// dequeue, so the queue never runs dry and every op succeeds.
func invAt(i int) history.Invocation {
	if i%3 == 2 {
		return history.DeqInv()
	}
	return history.EnqInv(i%7 + 1)
}

func certifyQ1Q2(t *testing.T, what string, h history.History) {
	t.Helper()
	if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, "Q1Q2", h); v != nil {
		t.Fatalf("%s fails certification at Q1Q2: %+v", what, v)
	}
}

func TestCrashRestartAtEveryProtocolStep(t *testing.T) {
	const (
		sites  = 5
		victim = 2
		warm   = 15 // ops before the crash
		down   = 15 // ops while the victim is dead
		after  = 10 // ops after recovery
	)
	steps := []struct {
		name string
		// arm installs the crash trigger for exactly one operation.
		arm func(c *Client, r *Replica, fired *bool)
		// durable is whether the victim's log after restart includes the
		// entry of the op that was in flight when it died.
		durable bool
	}{
		{
			name: "after-step1-reads",
			arm: func(c *Client, r *Replica, fired *bool) {
				c.Hooks.AfterStep1 = func() {
					if !*fired {
						*fired = true
						r.Crash()
					}
				}
			},
		},
		{
			name: "mid-step2-eval",
			arm: func(c *Client, r *Replica, fired *bool) {
				c.Hooks.AfterStep2 = func() {
					if !*fired {
						*fired = true
						r.Crash()
					}
				}
			},
		},
		{
			name: "before-wal-append",
			arm: func(c *Client, r *Replica, fired *bool) {
				r.Hooks.BeforeAppend = func(site int, e quorum.Entry) error {
					if *fired {
						return nil
					}
					*fired = true
					return errors.New("crash before append")
				}
			},
		},
		{
			name:    "between-wal-append-and-ack",
			durable: true,
			arm: func(c *Client, r *Replica, fired *bool) {
				r.Hooks.BeforeAck = func(site int) error {
					if *fired {
						return nil
					}
					*fired = true
					return errors.New("crash before ack")
				}
			},
		},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
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
			cl := NewClient(PQClientConfig(tr), sites+1)

			var observed history.History
			run := func(from, n int) {
				t.Helper()
				for i := from; i < from+n; i++ {
					op, err := cl.Execute(invAt(i))
					if err != nil {
						t.Fatalf("op %d (%s): %v", i, invAt(i), err)
					}
					observed = append(observed, op)
				}
			}

			run(0, warm)
			beforeCrash := replicas[victim].Log()

			// Arm the crash; the next op kills the victim at this step.
			fired := false
			step.arm(cl, replicas[victim], &fired)
			run(warm, down)
			cl.Hooks = ClientHooks{}
			replicas[victim].Hooks = ReplicaHooks{}
			if !fired {
				t.Fatal("crash trigger never fired")
			}

			// Restart: the headline. Recovery must land exactly where the
			// durable log says, and that state must certify at the rung.
			info, err := replicas[victim].Restart()
			if err != nil {
				t.Fatalf("Restart: %v", err)
			}
			recovered := replicas[victim].Log()
			certifyQ1Q2(t, "recovered site log", recovered.History())

			wantLen := beforeCrash.Len()
			if step.durable {
				// The in-flight entry hit the WAL before the ack was
				// dropped: recovery must resurface it even though the
				// client never knew this site had it.
				wantLen++
				last := recovered.Entry(recovered.Len() - 1).Op
				if !last.Equal(observed[warm]) {
					t.Fatalf("durable-but-unacked entry lost: recovered tail %s, want %s", last, observed[warm])
				}
			}
			if recovered.Len() != wantLen {
				t.Fatalf("recovered %d entries (info %+v), want %d", recovered.Len(), info, wantLen)
			}
			if !quorum.Merge(replicas[0].Log()).HasPrefix(recovered) {
				t.Fatalf("recovered log is not a prefix of a surviving site's log")
			}

			// Model-oracle cross-check: seed a deterministic cluster from
			// the recovered durable logs and have both systems answer the
			// same invocation — the responses must agree.
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
			probe := invAt(warm + down)
			wantOp, err := oracle.Client(0).Execute(probe)
			if err != nil {
				t.Fatalf("oracle probe: %v", err)
			}
			gotOp, err := cl.Execute(probe)
			if err != nil {
				t.Fatalf("probe after restart: %v", err)
			}
			if !gotOp.Equal(wantOp) {
				t.Fatalf("recovered service answers %s, oracle answers %s", gotOp, wantOp)
			}
			observed = append(observed, gotOp)

			// The service keeps running: the restarted site catches up
			// through ordinary step-3 propagation.
			run(warm+down+1, after)
			certifyQ1Q2(t, "client-observed history", observed)
			merged := quorum.Merge(replicas[0].Log(), replicas[1].Log(), replicas[2].Log(),
				replicas[3].Log(), replicas[4].Log())
			certifyQ1Q2(t, "final merged log", merged.History())
			if !replicas[victim].Log().Equal(merged) {
				t.Fatalf("restarted site never caught up:\n got %s\nwant %s", replicas[victim].Log(), merged)
			}
		})
	}
}

// TestCrashWhileDownIsUnavailable pins the transport-level contract: a
// crashed replica answers nothing, and once too many sites are down the
// gate refuses with the cluster's own unavailability error.
func TestCrashWhileDownIsUnavailable(t *testing.T) {
	replicas, err := OpenSites("", 3, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	tr := NewLocal(replicas)
	cl := NewClient(PQClientConfig(tr), 4)
	if _, err := cl.Execute(history.EnqInv(1)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	replicas[0].Crash()
	replicas[1].Crash()
	_, err = cl.Execute(history.EnqInv(2))
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("2 of 3 sites down: got %v, want ErrUnavailable", err)
	}
	if err := cl.Ping(0); !errors.Is(err, ErrDown) {
		t.Fatalf("ping of crashed site: got %v, want ErrDown", err)
	}
	if err := cl.Ping(2); err != nil {
		t.Fatalf("ping of live site: %v", err)
	}
}
