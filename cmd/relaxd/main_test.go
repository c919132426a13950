package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/relaxd"
)

// startServer runs the server in a goroutine and returns its addresses
// plus a shutdown function that waits for the clean exit.
func startServer(t *testing.T, args []string) ([]string, *bytes.Buffer, func() error) {
	t.Helper()
	var out bytes.Buffer
	var mu sync.Mutex // out is written by the server goroutine
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	ready := make(chan []string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(args, w, ready, stop) }()
	select {
	case addrs := <-ready:
		return addrs, &out, func() error {
			close(stop)
			return <-done
		}
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
		return nil, nil, nil
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServeAllSitesAndRecover(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sites", "3", "-listen", "127.0.0.1:0", "-dir", dir}

	addrs, out, shutdown := startServer(t, args)
	if len(addrs) != 3 {
		t.Fatalf("got %d addresses, want 3", len(addrs))
	}
	tr := relaxd.NewPooledTransport(addrs, 0)
	cl := relaxd.NewClient(relaxd.PQClientConfig(tr), 4)
	for i := 0; i < 9; i++ {
		inv := history.EnqInv(i%5 + 1)
		if i%3 == 2 {
			inv = history.DeqInv()
		}
		if _, err := cl.Execute(inv); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	tr.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("no clean-shutdown line:\n%s", out.String())
	}

	// Restart over the same directories: the recovery lines must report
	// the entries the first incarnation made durable.
	addrs, out, shutdown = startServer(t, args)
	if !strings.Contains(out.String(), "recovered 9 entries") {
		t.Fatalf("restart did not report recovery:\n%s", out.String())
	}
	tr = relaxd.NewPooledTransport(addrs, 0)
	defer tr.Close()
	cl = relaxd.NewClient(relaxd.PQClientConfig(tr), 5)
	if _, err := cl.Execute(history.DeqInv()); err != nil {
		t.Fatalf("op against recovered service: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestServeSingleSite(t *testing.T) {
	dir := t.TempDir()
	addrs, out, shutdown := startServer(t,
		[]string{"-site", "2", "-listen", "127.0.0.1:0", "-dir", dir})
	if len(addrs) != 1 {
		t.Fatalf("got %d addresses, want 1", len(addrs))
	}
	if !strings.Contains(out.String(), "site 2 recovered 0 entries") {
		t.Fatalf("no recovery line for a fresh store:\n%s", out.String())
	}
	// A lone site of a larger service answers protocol messages even
	// though no quorum can form around it alone.
	tr := relaxd.NewPooledTransport([]string{addrs[0]}, 0)
	defer tr.Close()
	resp, err := tr.RoundTrip(0, relaxd.Message{Type: relaxd.MsgPing})
	if err != nil || resp.Type != relaxd.MsgPong {
		t.Fatalf("ping: %v (type %d)", err, resp.Type)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJoinMode(t *testing.T) {
	dir := t.TempDir()
	addrs, _, shutdown := startServer(t,
		[]string{"-sites", "3", "-listen", "127.0.0.1:0", "-dir", dir, "-snapshot-every", "4", "-segment-records", "3"})
	tr := relaxd.NewPooledTransport(addrs, 0)
	cl := relaxd.NewClient(relaxd.PQClientConfig(tr), 4)
	for i := 0; i < 9; i++ {
		inv := history.EnqInv(i%5 + 1)
		if i%3 == 2 {
			inv = history.DeqInv()
		}
		if _, err := cl.Execute(inv); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	tr.Close()

	// A wiped replacement for site 2 joins from the live peers before it
	// serves: fresh directory, -join, the running service's addresses.
	joinAddrs, out, joinShutdown := startServer(t,
		[]string{"-site", "2", "-listen", "127.0.0.1:0", "-dir", t.TempDir(),
			"-join", "-peers", strings.Join(addrs, ",")})
	if !strings.Contains(out.String(), "site 2 joined from site 0 (8 snapshot + 1 wal entries, certified)") {
		t.Fatalf("no join announce line:\n%s", out.String())
	}
	jtr := relaxd.NewPooledTransport([]string{joinAddrs[0]}, 0)
	defer jtr.Close()
	resp, err := jtr.RoundTrip(0, relaxd.Message{Type: relaxd.MsgGetLog})
	if err != nil || resp.Type != relaxd.MsgLog {
		t.Fatalf("get log from joined site: %v (type %d)", err, resp.Type)
	}
	if len(resp.Entries) != 9 {
		t.Fatalf("joined site serves %d entries, want 9", len(resp.Entries))
	}
	if err := joinShutdown(); err != nil {
		t.Fatalf("joiner shutdown: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	// A configuration that got past validation would serve until stop
	// closes; closed, it returns at once and the row fails.
	stop := make(chan struct{})
	close(stop)
	peers := "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"
	for _, tc := range []struct {
		args []string
		flag string // the flag the error must name; "" checks only that it fails
	}{
		{[]string{"-sites", "3", "-site", "1"}, ""},
		{nil, ""},
		{[]string{"-site", "1", "-join"}, "-peers"},
		{[]string{"-sites", "3", "-join", "-peers", "x:1"}, "-join"},
		{[]string{"-site", "5", "-join", "-peers", peers}, "-site"},
		{[]string{"-site", "3", "-join", "-peers", peers}, "-site"},
		{[]string{"-sites", "1", "-snapshot-every", "-5"}, "-snapshot-every"},
		{[]string{"-sites", "1", "-segment-records", "-1"}, "-segment-records"},
	} {
		err := run(tc.args, &bytes.Buffer{}, nil, stop)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("relaxd %v: got %v, want an error naming %q", tc.args, err, tc.flag)
		}
	}
}
