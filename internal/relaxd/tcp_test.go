package relaxd

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"relaxlattice/internal/quorum"
)

// TestTCPKillRestart runs the protocol over real sockets: three sites
// on loopback, a hard kill of one (listener torn down, replica crashed
// with no final flush), a restart on the same address, and a recovery
// the checker certifies. The deterministic battery covers every crash
// point; this covers the actual byte path.
func TestTCPKillRestart(t *testing.T) {
	const sites = 3
	dir := t.TempDir()
	replicas, err := OpenSites(dir, sites, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	servers := make([]*SiteServer, sites)
	addrs := make([]string, sites)
	for i, r := range replicas {
		s, err := ListenSite("127.0.0.1:0", r)
		if err != nil {
			t.Fatalf("ListenSite %d: %v", i, err)
		}
		servers[i] = s
		addrs[i] = s.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	tr := NewPooledTransport(addrs, 0)
	defer tr.Close()
	cl := NewClient(PQClientConfig(tr), sites+1)

	for i := 0; i < 12; i++ {
		if _, err := cl.Execute(invAt(i)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Hard kill site 1: the listener goes away and the replica loses
	// all volatile state — only the WAL survives.
	const victim = 1
	servers[victim].lis.Close()
	replicas[victim].Crash()

	// The survivors still form every quorum (2 of 3 ≥ majority).
	for i := 12; i < 24; i++ {
		if _, err := cl.Execute(invAt(i)); err != nil {
			t.Fatalf("op %d with site %d dead: %v", i, victim, err)
		}
	}

	// Restart on the same address, recovering from the WAL.
	info, err := replicas[victim].Restart()
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if info.WALEntries+info.SnapshotEntries == 0 {
		t.Fatal("restart recovered nothing from a WAL that held 12 ops")
	}
	certifyQ1Q2(t, "recovered site log", replicas[victim].Log().History())
	s, err := ListenSite(addrs[victim], replicas[victim])
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addrs[victim], err)
	}
	servers[victim] = s

	for i := 24; i < 36; i++ {
		if _, err := cl.Execute(invAt(i)); err != nil {
			t.Fatalf("op %d after restart: %v", i, err)
		}
	}

	// The restarted site caught up over the wire.
	merged := quorum.Merge(replicas[0].Log(), replicas[1].Log(), replicas[2].Log())
	if !replicas[victim].Log().Equal(merged) {
		t.Fatalf("restarted site behind: %d of %d entries", replicas[victim].Log().Len(), merged.Len())
	}
	certifyQ1Q2(t, "final merged log", merged.History())
}

// TestServeClosesNonPreambleConnections pins the listener's check on
// outside input: a peer that does not open with the exact 8-byte
// preamble — a well-formed frame with no preamble, a preamble of some
// other version, a truncated one — gets no reply, only a closed
// connection, while the real preamble on the same listener is served.
func TestServeClosesNonPreambleConnections(t *testing.T) {
	replicas, err := OpenSites("", 1, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenSite("127.0.0.1:0", replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for name, opening := range map[string][]byte{
		"bare ping frame":    {0, 0, 0, 1, MsgPing},
		"other version":      []byte("rlxmux2\n\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x01\x06"),
		"preamble cut short": []byte("rlxmux1"),
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
			t.Errorf("%s: got reply %x (err %v), want a silent close", name, reply, err)
		}
		conn.Close()
	}

	tr := NewPooledTransport([]string{srv.Addr()}, 0)
	defer tr.Close()
	if resp, err := tr.RoundTrip(0, Message{Type: MsgPing}); err != nil || resp.Type != MsgPong {
		t.Fatalf("ping after the refusals: %v (type %d)", err, resp.Type)
	}
}

// countingListener counts the connections it accepts: a request that
// dials the site shows as an accept, one the transport skips does not.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// serveCounting serves r on addr through a countingListener.
func serveCounting(t *testing.T, addr string, r *Replica) *countingListener {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen on %s: %v", addr, err)
	}
	cl := &countingListener{Listener: lis}
	go Serve(cl, r)
	t.Cleanup(func() { lis.Close() })
	return cl
}

// refusedAddr reserves a loopback port and frees it, so a dial to it
// is refused until something listens there again.
func refusedAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// openOne opens one durable replica, closed when the test ends.
func openOne(t *testing.T) *Replica {
	t.Helper()
	replicas, err := OpenSites(t.TempDir(), 1, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replicas[0].Close() })
	return replicas[0]
}

// ping sends one MsgPing over tr to site 0.
func ping(tr *PooledTransport) error {
	resp, err := tr.RoundTrip(0, Message{Type: MsgPing})
	if err == nil && resp.Type != MsgPong {
		err = errors.New("reply is not a pong")
	}
	return err
}

// TestPooledSkipsRefusedSite pins the skip rule: after a refused dial
// the site's next dialSkip requests fail with ErrDown without a dial —
// the listener that comes up meanwhile accepts nothing — and the one
// after dials and is answered.
func TestPooledSkipsRefusedSite(t *testing.T) {
	addr := refusedAddr(t)
	tr := NewPooledTransport([]string{addr}, 0)
	defer tr.Close()
	if err := ping(tr); !errors.Is(err, ErrDown) {
		t.Fatalf("request 1 to a closed port: err %v, want ErrDown", err)
	}
	lis := serveCounting(t, addr, openOne(t))
	for i := 2; i <= dialSkip+1; i++ {
		if err := ping(tr); !errors.Is(err, ErrDown) {
			t.Fatalf("request %d within the skip: err %v, want ErrDown", i, err)
		}
	}
	if n := lis.accepts.Load(); n != 0 {
		t.Fatalf("the skipped requests dialled: %d accepts", n)
	}
	if err := ping(tr); err != nil {
		t.Fatalf("request %d after the skip: %v", dialSkip+2, err)
	}
	if n := lis.accepts.Load(); n != 1 {
		t.Fatalf("%d accepts after the redial, want 1", n)
	}
}

// TestPooledRedialsAfterDeadConn: a live connection that dies starts no
// skip. The request on it fails, and once the site is back behind the
// listener that stayed up, the very next request dials and is answered.
func TestPooledRedialsAfterDeadConn(t *testing.T) {
	r := openOne(t)
	lis := serveCounting(t, "127.0.0.1:0", r)
	tr := NewPooledTransport([]string{lis.Addr().String()}, 0)
	defer tr.Close()
	if err := ping(tr); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	r.Crash() // the site closes the connection it is asked on
	if err := ping(tr); !errors.Is(err, ErrDown) {
		t.Fatalf("ping on the dead connection: err %v, want ErrDown", err)
	}
	if _, err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := ping(tr); err != nil {
		t.Fatalf("ping after the restart: %v", err)
	}
	if n := lis.accepts.Load(); n != 2 {
		t.Fatalf("%d accepts, want 2 (one dial per connection)", n)
	}
}

// TestPooledCloseForgetsRefusal: Close clears a failed dial's skip, so
// the transport's next request dials at once.
func TestPooledCloseForgetsRefusal(t *testing.T) {
	addr := refusedAddr(t)
	tr := NewPooledTransport([]string{addr}, 0)
	defer tr.Close()
	if err := ping(tr); !errors.Is(err, ErrDown) {
		t.Fatalf("ping to a closed port: err %v, want ErrDown", err)
	}
	serveCounting(t, addr, openOne(t))
	tr.Close()
	if err := ping(tr); err != nil {
		t.Fatalf("ping after Close: %v", err)
	}
}
