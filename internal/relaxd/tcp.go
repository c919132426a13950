package relaxd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Serve accepts connections on l and answers framed requests against
// r until l is closed (which makes Accept return and Serve exit) —
// goroutine-per-connection, each carrying concurrent correlated
// exchanges (serveMux). A replica that is down answers nothing: the
// connection is closed, which the client reads as unreachability.
func Serve(l net.Listener, r *Replica) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, r)
	}
}

// maxInFlight bounds the handler goroutines one connection may have
// running at once; further frames wait in the read loop.
const maxInFlight = 64

// serveConn checks the preamble and runs the request loop. A peer that
// does not open with exactly muxMagic is not speaking this protocol:
// its connection is closed without a reply.
func serveConn(conn net.Conn, r *Replica) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	magic := make([]byte, len(muxMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != muxMagic {
		return
	}
	serveMux(conn, br, r)
}

// serveMux runs the multiplexed request loop: requests are read in
// order, each a whole message however many frames it came in, handled
// concurrently (bounded by maxInFlight), and replies are written back in
// completion order, each frame in one write under a write lock — the
// correlation ids let the client pair them up. A reply streamed as
// several frames holds a second lock from its first frame to its last,
// so the other replies go on between them but two streams never
// interleave. The pipelined-append path depends on this concurrency:
// many in-flight MsgAppends on one connection ride a shared group-commit
// fsync window instead of serializing round trips.
func serveMux(conn net.Conn, br *bufio.Reader, r *Replica) {
	var (
		wmu  sync.Mutex
		smu  sync.Mutex // held for a whole multi-frame reply
		wg   sync.WaitGroup
		slot = make(chan struct{}, maxInFlight)
	)
	write := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := conn.Write(frame)
		return err
	}
	defer wg.Wait()
	fr := frameReader{r: br}
	for {
		id, req, err := fr.next()
		if err != nil {
			return
		}
		slot <- struct{}{}
		wg.Add(1)
		go func(id uint64, req Message) {
			defer wg.Done()
			defer func() { <-slot }()
			resp, err := r.Handle(req)
			if err != nil {
				conn.Close() // down / crash hook: vanish like a dead site
				return
			}
			if err := writeMessage(write, &smu, id, resp); err != nil {
				conn.Close()
			}
		}(id, req)
	}
}

// PooledTransport reaches each site over one multiplexed connection
// carrying every in-flight request for that site: RoundTrip is safe to
// call concurrently, and
// concurrent calls to the same site share the connection instead of
// queueing behind each other. Any I/O error or timeout fails the
// connection (every in-flight request errors), reports the site
// unreachable for those calls, and redials lazily — kill-9 semantics:
// the protocol treats the site exactly like a crashed one and proceeds
// with the sites that do answer.
type PooledTransport struct {
	addrs   []string
	timeout time.Duration
	sites   []pooledSite
}

// dialSkip is how many requests to a site fail at once, without a
// dial, after a dial to it fails: a refusal is held as a crash
// suspicion instead of being rechecked at socket cost on every
// request. It counts requests, not time, so the rule needs no clock
// and a healed site is back within dialSkip+1 requests; a dial that
// waits out the whole timeout (a host that drops packets) delays one
// request in dialSkip+1, not every one.
const dialSkip = 8

type pooledSite struct {
	mu   sync.Mutex
	conn *muxConn // nil redials lazily
	skip int      // requests left to fail without dialling
}

// errSuspected fails a request that a recent failed dial skips.
var errSuspected = errors.New("relaxd: not redialled since a failed dial")

// NewPooledTransport builds a pooled transport over one address per
// site. timeout bounds each dial and each request/reply exchange; 0
// means 5 seconds. A request within 8 requests (dialSkip) of a failed
// dial to its site fails with ErrDown without a dial.
func NewPooledTransport(addrs []string, timeout time.Duration) *PooledTransport {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &PooledTransport{
		addrs:   append([]string(nil), addrs...),
		timeout: timeout,
		sites:   make([]pooledSite, len(addrs)),
	}
}

// Sites returns the number of configured sites.
func (t *PooledTransport) Sites() int { return len(t.addrs) }

// Concurrent marks the transport safe for concurrent RoundTrips; the
// client fans protocol steps out in parallel over it.
func (t *PooledTransport) Concurrent() bool { return true }

// RoundTrip performs one correlated exchange with site over the
// pooled connection.
func (t *PooledTransport) RoundTrip(site int, req Message) (Message, error) {
	if site < 0 || site >= len(t.addrs) {
		return Message{}, fmt.Errorf("relaxd: site %d out of range", site)
	}
	mc, err := t.conn(site)
	if err != nil {
		return Message{}, fmt.Errorf("%w: site %d: %v", ErrDown, site, err)
	}
	resp, err := mc.roundTrip(req, t.timeout)
	if err != nil {
		t.drop(site, mc)
		return Message{}, fmt.Errorf("%w: site %d: %v", ErrDown, site, err)
	}
	return resp, nil
}

// conn returns the site's live pooled connection, dialing one if
// needed and no failed dial is being held. Dials serialize per site;
// other sites are unaffected.
func (t *PooledTransport) conn(site int) (*muxConn, error) {
	ps := &t.sites[site]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.conn != nil && !ps.conn.failed() {
		return ps.conn, nil
	}
	ps.conn = nil
	if ps.skip > 0 {
		ps.skip--
		return nil, errSuspected
	}
	c, err := net.DialTimeout("tcp", t.addrs[site], t.timeout)
	if err != nil {
		ps.skip = dialSkip
		return nil, err
	}
	mc, err := newMuxConn(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	ps.conn = mc
	return mc, nil
}

// drop forgets a failed connection so the next call redials.
func (t *PooledTransport) drop(site int, mc *muxConn) {
	ps := &t.sites[site]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.conn == mc {
		ps.conn = nil
	}
}

// Close fails every pooled connection and forgets every failed dial.
func (t *PooledTransport) Close() error {
	for i := range t.sites {
		ps := &t.sites[i]
		ps.mu.Lock()
		if ps.conn != nil {
			ps.conn.fail(errors.New("relaxd: transport closed"))
			ps.conn = nil
		}
		ps.skip = 0
		ps.mu.Unlock()
	}
	return nil
}

// muxConn is one multiplexed connection: a writer side issuing
// correlation ids and a reader goroutine pairing replies back to the
// in-flight requests. The reader decodes a streamed reply frame by
// frame as it arrives and hands the request its whole reply.
type muxConn struct {
	c   net.Conn
	wmu sync.Mutex // held for each request's frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Message // in-flight requests, by id
	err     error                   // sticky: set once the conn is dead
}

// newMuxConn writes the preamble and starts the reader.
func newMuxConn(c net.Conn) (*muxConn, error) {
	if _, err := c.Write([]byte(muxMagic)); err != nil {
		return nil, err
	}
	mc := &muxConn{c: c, pending: make(map[uint64]chan Message)}
	go mc.readLoop()
	return mc, nil
}

// readLoop dispatches replies to their waiting requests until the
// connection dies, then fails every in-flight request.
func (mc *muxConn) readLoop() {
	fr := frameReader{r: bufio.NewReader(mc.c), replies: true}
	for {
		id, m, err := fr.next()
		if err != nil {
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		ch := mc.pending[id]
		delete(mc.pending, id)
		mc.mu.Unlock()
		if ch != nil {
			ch <- m // buffered; never blocks
		}
	}
}

// fail marks the connection dead and wakes every in-flight request
// with a closed channel.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err == nil {
		mc.err = err
	}
	pend := mc.pending
	mc.pending = make(map[uint64]chan Message)
	mc.mu.Unlock()
	mc.c.Close()
	for _, ch := range pend {
		close(ch)
	}
}

// failed reports whether the connection is dead.
func (mc *muxConn) failed() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// roundTrip issues one correlated exchange, its request written whole
// — every frame of a stream — under wmu. A timeout fails the whole
// connection: an unresponsive site is indistinguishable from a dead
// one, and the stream's remaining replies can no longer be trusted to
// arrive.
func (mc *muxConn) roundTrip(req Message, timeout time.Duration) (Message, error) {
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return Message{}, err
	}
	id := mc.nextID
	mc.nextID++
	ch := make(chan Message, 1)
	mc.pending[id] = ch
	mc.mu.Unlock()

	mc.wmu.Lock()
	mc.c.SetWriteDeadline(time.Now().Add(timeout))
	err := writeMessage(func(frame []byte) error {
		_, err := mc.c.Write(frame)
		return err
	}, nil, id, req)
	mc.wmu.Unlock()
	if err != nil {
		mc.forget(id)
		mc.fail(err)
		return Message{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m, ok := <-ch:
		if !ok {
			mc.mu.Lock()
			err := mc.err
			mc.mu.Unlock()
			return Message{}, err
		}
		return m, nil
	case <-timer.C:
		mc.forget(id)
		mc.fail(errors.New("relaxd: request timed out"))
		return Message{}, errors.New("relaxd: request timed out")
	}
}

// forget withdraws an in-flight request (its reply, if it ever comes,
// is dropped by the read loop).
func (mc *muxConn) forget(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}
