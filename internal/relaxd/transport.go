package relaxd

import (
	"bytes"
	"fmt"
)

// Transport carries one request/reply exchange to a site. The client
// library is transport-agnostic: the in-process transport gives
// deterministic tier-1 tests (synchronous calls, no sockets, no
// sleeps), the pooled TCP transport is the production face. A transport
// error means the site gave no answer and drops out of the quorum for
// that protocol step.
type Transport interface {
	// Sites returns how many sites the transport can reach.
	Sites() int
	// RoundTrip sends req to site and returns its reply, which is the
	// caller's own: a joining replica adopts a MsgState reply's parts.
	RoundTrip(site int, req Message) (Message, error)
}

// ConcurrentTransport marks a transport whose RoundTrip is safe to
// call concurrently (PooledTransport). The client fans protocol steps
// out in parallel over such transports and stays sequential — and
// deterministic — over the rest (Local).
type ConcurrentTransport interface {
	Transport
	Concurrent() bool
}

// Local is the in-process transport over a fixed set of replicas:
// every call is a synchronous handler dispatch, with the request and
// reply both pushed through the real wire codec so the deterministic
// tests exercise the same byte path TCP does.
type Local struct {
	replicas []*Replica
}

// NewLocal builds the in-process transport.
//
//lint:ignore unreached in-process transport: the deterministic tests (relaxd's and relaxbench's) substitute it for TCP
func NewLocal(replicas []*Replica) *Local {
	return &Local{replicas: replicas}
}

// Sites returns the number of reachable sites.
//
//lint:ignore unreached in-process transport: the deterministic tests substitute it for TCP
func (t *Local) Sites() int { return len(t.replicas) }

// RoundTrip encodes req, decodes it on the "server" side, dispatches
// it to the replica, and round-trips the reply the same way.
//
//lint:ignore unreached in-process transport: the deterministic tests substitute it for TCP
func (t *Local) RoundTrip(site int, req Message) (Message, error) {
	if site < 0 || site >= len(t.replicas) {
		return Message{}, fmt.Errorf("relaxd: site %d out of range", site)
	}
	decoded, err := reencode(req, false)
	if err != nil {
		return Message{}, err
	}
	resp, err := t.replicas[site].Handle(decoded)
	if err != nil {
		return Message{}, err
	}
	return reencode(resp, true)
}

// reencode pushes a message through the wire codec (frames out, frames
// back in through the reader a server or a client runs, as replies
// says), so in-process calls see exactly the bytes — the MaxFrame bound
// and the streams — TCP would.
func reencode(m Message, replies bool) (Message, error) {
	var b bytes.Buffer
	err := writeMessage(func(frame []byte) error {
		_, err := b.Write(frame)
		return err
	}, nil, 0, m)
	if err != nil {
		return Message{}, err
	}
	fr := frameReader{r: &b, replies: replies}
	_, decoded, err := fr.next()
	return decoded, err
}
