package cluster

import (
	"errors"
	"fmt"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/value"
)

// Table-driven edge cases for the responders: wrong carrier types,
// unknown operations, empty views, and malformed invocations must all
// decline (ok=false) rather than fabricate a response — a declined
// response is what surfaces to clients as ErrNoResponse.
func TestRespondersEdgeCases(t *testing.T) {
	credit := history.Invocation{Name: history.NameCredit}
	debit := func(args ...int) history.Invocation {
		return history.Invocation{Name: history.NameDebit, Args: args}
	}
	tests := []struct {
		name    string
		respond Responder
		state   value.Value
		inv     history.Invocation
		wantOK  bool
		wantOp  history.Op
	}{
		{"pq/enq", PQResponder, value.EmptyBag(), history.EnqInv(3), true, history.Enq(3)},
		{"pq/deq-best", PQResponder, value.EmptyBag().Ins(2).Ins(9).Ins(5), history.DeqInv(), true, history.DeqOk(9)},
		{"pq/deq-empty", PQResponder, value.EmptyBag(), history.DeqInv(), false, history.Op{}},
		{"pq/wrong-carrier", PQResponder, value.EmptySeq().Ins(1), history.DeqInv(), false, history.Op{}},
		{"pq/unknown-op", PQResponder, value.EmptyBag().Ins(1), credit, false, history.Op{}},

		{"fifo/enq", FIFOResponder, value.EmptySeq(), history.EnqInv(7), true, history.Enq(7)},
		{"fifo/deq-oldest", FIFOResponder, value.EmptySeq().Ins(3).Ins(1).Ins(2), history.DeqInv(), true, history.DeqOk(3)},
		{"fifo/deq-empty", FIFOResponder, value.EmptySeq(), history.DeqInv(), false, history.Op{}},
		{"fifo/wrong-carrier", FIFOResponder, value.EmptyBag().Ins(1), history.DeqInv(), false, history.Op{}},
		{"fifo/unknown-op", FIFOResponder, value.EmptySeq().Ins(1), debit(1), false, history.Op{}},

		{"acct/credit", AccountResponder, value.NewAccount(0),
			history.Invocation{Name: history.NameCredit, Args: []int{5}}, true,
			history.Invocation{Name: history.NameCredit, Args: []int{5}}.WithResponse(history.Ok, nil)},
		{"acct/debit-covered", AccountResponder, value.NewAccount(10), debit(10), true,
			debit(10).WithResponse(history.Ok, nil)},
		{"acct/debit-overdraft", AccountResponder, value.NewAccount(9), debit(10), true,
			debit(10).WithResponse(history.Over, nil)},
		{"acct/debit-no-args", AccountResponder, value.NewAccount(9), debit(), false, history.Op{}},
		{"acct/debit-extra-args", AccountResponder, value.NewAccount(9), debit(1, 2), false, history.Op{}},
		{"acct/wrong-carrier", AccountResponder, value.EmptyBag().Ins(1), debit(1), false, history.Op{}},
		{"acct/unknown-op", AccountResponder, value.NewAccount(9), history.DeqInv(), false, history.Op{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			op, ok := tc.respond(tc.state, tc.inv)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if fmt.Sprint(op) != fmt.Sprint(tc.wantOp) {
				t.Fatalf("op = %v, want %v", op, tc.wantOp)
			}
		})
	}
}

// View-assembly edges: what a client reads in step 1 of the protocol
// under fresh, fully crashed, and single-survivor clusters.
func TestViewAssemblyEdges(t *testing.T) {
	t.Run("fresh cluster has an empty view of every site", func(t *testing.T) {
		c := taxiCluster(t, 5, "Q1Q2")
		view, sites := c.View(0)
		if view.Len() != 0 {
			t.Errorf("fresh view has %d entries, want 0", view.Len())
		}
		if len(sites) != 5 {
			t.Errorf("fresh view built from %d sites, want all 5", len(sites))
		}
	})

	t.Run("crashed home sees nothing", func(t *testing.T) {
		c := taxiCluster(t, 5, "Q1Q2")
		c.Crash(0)
		view, sites := c.View(0)
		if view.Len() != 0 || sites != nil {
			t.Errorf("crashed home: view len %d, sites %v; want empty and nil", view.Len(), sites)
		}
		if c.Probe(0, quorum.TaxiAssignments(5)["none"]) {
			t.Error("crashed home probes available even under the trivial assignment")
		}
	})

	t.Run("all sites crashed", func(t *testing.T) {
		c := taxiCluster(t, 5, "Q1Q2")
		for s := 0; s < 5; s++ {
			c.Crash(s)
		}
		if _, err := c.Client(0).Execute(history.EnqInv(1)); !errors.Is(err, ErrUnavailable) {
			t.Errorf("err = %v, want ErrUnavailable", err)
		}
		view, sites := c.View(2)
		if view.Len() != 0 || sites != nil {
			t.Errorf("dead cluster: view len %d, sites %v", view.Len(), sites)
		}
	})

	t.Run("single survivor satisfies the trivial assignment", func(t *testing.T) {
		c := taxiCluster(t, 5, "none")
		for s := 1; s < 5; s++ {
			c.Crash(s)
		}
		if !c.Probe(0, quorum.TaxiAssignments(5)["none"]) {
			t.Fatal("lone survivor should satisfy single-site quorums")
		}
		if _, err := c.Client(0).Execute(history.EnqInv(4)); err != nil {
			t.Fatalf("Enq on lone survivor: %v", err)
		}
		op, err := c.Client(0).Execute(history.DeqInv())
		if err != nil || len(op.Res) != 1 || op.Res[0] != 4 {
			t.Fatalf("Deq on lone survivor = %v, %v; want Deq/Ok(4)", op, err)
		}
		_, sites := c.View(0)
		if len(sites) != 1 || sites[0] != 0 {
			t.Errorf("lone survivor view built from %v, want [0]", sites)
		}
	})

	t.Run("degraded deq on an empty queue is ErrNoResponse, not ErrUnavailable", func(t *testing.T) {
		c := taxiCluster(t, 5, "Q1Q2")
		// Break every quorum but keep the home site up, then degrade.
		for s := 1; s < 5; s++ {
			c.Crash(s)
		}
		cl := c.Client(0)
		cl.Degrade = true
		if _, err := cl.Execute(history.DeqInv()); !errors.Is(err, ErrNoResponse) {
			t.Errorf("degraded Deq on empty queue: err = %v, want ErrNoResponse", err)
		}
		// An Enq still lands degraded, after which the Deq serves it.
		if _, err := cl.Execute(history.EnqInv(8)); err != nil {
			t.Fatalf("degraded Enq: %v", err)
		}
		op, err := cl.Execute(history.DeqInv())
		if err != nil || len(op.Res) != 1 || op.Res[0] != 8 {
			t.Fatalf("degraded Deq = %v, %v; want Deq/Ok(8)", op, err)
		}
	})
}
