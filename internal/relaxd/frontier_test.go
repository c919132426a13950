package relaxd

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// The frontier exchange (DESIGN.md §15): what travels is what the site
// is not known to hold, and every rule that makes that sound has a test
// here that fails when the rule is dropped.

// exchange is one round trip as a recording transport saw it.
type exchange struct {
	site      int
	req, resp Message
	failed    bool
}

// recordingTransport journals every round trip, reaches only the sites
// in only (nil: all), and loses the requests drop selects — the site
// never sees them, the client sees a dead site.
type recordingTransport struct {
	Transport
	only map[int]bool
	drop func(site int, req Message) bool
	log  []exchange
}

func (rt *recordingTransport) RoundTrip(site int, req Message) (Message, error) {
	if (rt.only != nil && !rt.only[site]) || (rt.drop != nil && rt.drop(site, req)) {
		rt.log = append(rt.log, exchange{site: site, req: req, failed: true})
		return Message{}, fmt.Errorf("%w: site %d unreachable in this test", ErrDown, site)
	}
	resp, err := rt.Transport.RoundTrip(site, req)
	rt.log = append(rt.log, exchange{site: site, req: req, resp: resp, failed: err != nil})
	return resp, err
}

// entries is how many log entries crossed the transport, both ways.
func (rt *recordingTransport) entries() int {
	n := 0
	for _, x := range rt.log {
		n += len(x.req.Entries) + len(x.resp.Entries)
	}
	return n
}

// of returns the journalled exchanges of one message type with one site.
func (rt *recordingTransport) of(typ byte, site int) []exchange {
	var out []exchange
	for _, x := range rt.log {
		if x.req.Type == typ && x.site == site {
			out = append(out, x)
		}
	}
	return out
}

// durableSites opens n durable replicas, each preloaded with the same
// `resident` Enq entries the way a client's step 3 would deliver them.
func durableSites(t *testing.T, n, resident int) []*Replica {
	t.Helper()
	replicas, err := OpenSites(t.TempDir(), n, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.Close()
		}
	})
	preload := make([]quorum.Entry, resident)
	for i := range preload {
		preload[i] = quorum.Entry{TS: ts(i+1, n), Op: history.Enq(i%9 + 1)}
	}
	for _, r := range replicas {
		if resp, err := r.Handle(Message{Type: MsgAppend, Entries: preload}); err != nil || resp.Type != MsgAck {
			t.Fatalf("preload site %d: %+v, %v", r.Site(), resp, err)
		}
	}
	return replicas
}

// pqClient is a degrading priority-queue client over t.
func pqClient(t Transport, clockSite int) *Client {
	c := NewClient(PQClientConfig(t), clockSite)
	c.Degrade = true
	return c
}

func mustExecute(t *testing.T, c *Client, inv history.Invocation) {
	t.Helper()
	if _, err := c.Execute(inv); err != nil {
		t.Fatalf("%s: %v", inv, err)
	}
}

// TestEntriesShippedIndependentOfHistory is the guard against the
// O(history) term coming back: once a client is warm, the entries an
// operation moves — both directions, all six round trips — do not depend
// on how many the sites hold. The count repeats exactly, so it is
// compared for equality, not within a tolerance.
func TestEntriesShippedIndependentOfHistory(t *testing.T) {
	perOp := func(resident int) []int {
		rt := &recordingTransport{Transport: NewLocal(durableSites(t, 3, resident))}
		c := pqClient(rt, 4)
		mustExecute(t, c, history.EnqInv(5)) // cold: fetches every site's log
		if cold := rt.entries(); cold < 3*resident {
			t.Fatalf("cold operation over %d resident entries moved only %d", resident, cold)
		}
		var out []int
		for i := 0; i < 20; i++ {
			rt.log = rt.log[:0]
			mustExecute(t, c, invAt(i))
			if n := len(rt.log); n != 6 {
				t.Fatalf("warm operation %d made %d round trips, want 6", i, n)
			}
			out = append(out, rt.entries())
		}
		return out
	}
	small, large := perOp(200), perOp(2000)
	for i := range small {
		if small[i] != large[i] || small[i] > 8 {
			t.Fatalf("warm operation %d moved %d entries at 200 resident, %d at 2000; want equal and at most 8",
				i, small[i], large[i])
		}
	}
}

// TestInsertBelowFrontierIsAnsweredInFull: the count alone does not
// identify a prefix. Client B, cut off at site 2, creates an entry with
// a low timestamp and later carries it to site 0 — below everything
// client A knows site 0 to hold. A's next step 1 names a frontier whose
// count site 0 can still satisfy; the timestamp test must reject it, or
// A's view silently loses B's entry.
func TestInsertBelowFrontierIsAnsweredInFull(t *testing.T) {
	replicas := durableSites(t, 3, 0)
	local := NewLocal(replicas)
	aNet := &recordingTransport{Transport: local, only: map[int]bool{0: true, 1: true}}
	bNet := &recordingTransport{Transport: local, only: map[int]bool{2: true}}
	a, b := pqClient(aNet, 4), pqClient(bNet, 5)
	for i := 0; i < 5; i++ {
		mustExecute(t, a, history.EnqInv(i+1))
	}
	mustExecute(t, b, history.EnqInv(9)) // timestamp 1:05, below A's 5:04
	bNet.only = map[int]bool{0: true, 2: true}
	mustExecute(t, b, history.EnqInv(8)) // carries 1:05 to site 0

	aNet.log = aNet.log[:0]
	got := a.sites.Read()
	reads := aNet.of(MsgGetLog, 0)
	if len(reads) != 1 || reads[0].req.Have != 5 || reads[0].resp.Delta || len(reads[0].resp.Entries) != 7 {
		t.Fatalf("site 0 answered a frontier an entry was inserted below with %+v", reads)
	}
	if sfx := aNet.of(MsgGetLog, 1); len(sfx) != 1 || !sfx[0].resp.Delta || len(sfx[0].resp.Entries) != 0 {
		t.Fatalf("site 1, untouched, should have vouched for the frontier: %+v", sfx)
	}
	cold := pqClient(&recordingTransport{Transport: local, only: aNet.only}, 6).sites.Read()
	if len(got) != 2 || len(cold) != 2 {
		t.Fatalf("answers: warm %d, cold %d, want 2 each", len(got), len(cold))
	}
	for i := range got {
		if !got[i].Log.Equal(cold[i].Log) || !got[i].Log.Equal(replicas[got[i].Site].Log()) {
			t.Fatalf("site %d: warm client's log\n%s\ncold client's\n%s", got[i].Site, got[i].Log, cold[i].Log)
		}
	}
}

// TestUnansweredAppendDoesNotAdvanceKnowledge: knowledge of a site
// advances from replies, never from requests. Site 1 loses one step-3
// request; the client must not count the entry as held there, and the
// next operation must send site 1 both entries.
func TestUnansweredAppendDoesNotAdvanceKnowledge(t *testing.T) {
	replicas := durableSites(t, 3, 10)
	rt := &recordingTransport{Transport: NewLocal(replicas)}
	c := pqClient(rt, 4)
	mustExecute(t, c, history.EnqInv(1))
	before := c.sites.known[1].log.Len()

	rt.drop = func(site int, req Message) bool { return site == 1 && req.Type == MsgAppend }
	mustExecute(t, c, history.EnqInv(2))
	if got := c.sites.known[1].log.Len(); got != before {
		t.Fatalf("knowledge of site 1 grew %d -> %d on a request that got no reply", before, got)
	}
	if got := c.sites.known[0].log.Len(); got != before+1 {
		t.Fatalf("knowledge of site 0, which acked, is %d entries, want %d", got, before+1)
	}

	rt.drop = nil
	rt.log = rt.log[:0]
	mustExecute(t, c, history.EnqInv(3))
	for site, want := range []int{1, 2, 1} {
		sent := rt.of(MsgAppend, site)
		if len(sent) != 1 || len(sent[0].req.Entries) != want || sent[0].resp.Type != MsgAck {
			t.Fatalf("site %d was sent %+v, want one acked request of %d entries", site, sent, want)
		}
	}
	for _, r := range replicas {
		if r.Log().Len() != before+2 {
			t.Fatalf("site %d holds %d entries, want %d", r.Site(), r.Log().Len(), before+2)
		}
	}
}

// An ephemeral replica (no store, relaxd's default) answers GetLog with
// its whole log every time. A log whose one-frame body is past MaxFrame
// used to fail that exchange — in process with "exceeds MaxFrame", over
// TCP by closing the connection and every request on it — so the site
// looked dead to every client. It streams as frames over both
// transports.
func TestEphemeralLogSpansFrames(t *testing.T) {
	entries := bigEntries(MaxFrame/3900 + 50)
	r, _, err := OpenReplica(0, "", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := r.Handle(Message{Type: MsgAppend, Entries: entries}); err != nil || resp.Type != MsgAck {
		t.Fatalf("preload: %+v, %v", resp, err)
	}
	reply, err := r.Handle(Message{Type: MsgGetLog})
	if err != nil {
		t.Fatal(err)
	}
	if body, err := AppendMessage(nil, reply); err != nil || len(body) <= MaxFrame {
		t.Fatalf("the log is one %d-byte body (%v): the test needs one past MaxFrame", len(body), err)
	}
	for name, tr := range map[string]Transport{
		"local":  NewLocal([]*Replica{r}),
		"pooled": servePooled(t, r, 1),
	} {
		got, err := tr.RoundTrip(0, Message{Type: MsgGetLog})
		if err != nil || got.Type != MsgLog || got.Delta {
			t.Fatalf("%s: GetLog answered %d delta=%v, %v", name, got.Type, got.Delta, err)
		}
		requireSameEntries(t, name, got.Entries, entries)
	}
}

// A cold read of logs many frames long is one GetLog per site, over
// Local and over TCP, answered from the start of each log.
func TestColdReadIsOneRoundTripPerSite(t *testing.T) {
	lowerStreamFrames(t, 1)
	replicas := durableSites(t, 3, 40)
	addrs := make([]string, len(replicas))
	for i, r := range replicas {
		srv, err := ListenSite("127.0.0.1:0", r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	pooled := NewPooledTransport(addrs, 0)
	t.Cleanup(func() { pooled.Close() })
	for name, tr := range map[string]Transport{"local": NewLocal(replicas), "pooled": pooled} {
		rt := &recordingTransport{Transport: tr}
		got := pqClient(rt, 4).sites.Read()
		if len(got) != 3 {
			t.Fatalf("%s: %d sites answered, want 3", name, len(got))
		}
		for _, a := range got {
			reads := rt.of(MsgGetLog, a.Site)
			if len(reads) != 1 || reads[0].resp.Delta || len(reads[0].resp.Entries) != 40 {
				t.Fatalf("%s: site %d: %d round trips, want one answering the whole log", name, a.Site, len(reads))
			}
			if n := len(streamFrames(t, reads[0].resp)); n != 40 {
				t.Fatalf("%s: site %d: the reply streamed as %d frames, want 40", name, a.Site, n)
			}
			if !a.Log.Equal(replicas[a.Site].Log()) {
				t.Fatalf("%s: site %d: read\n%s\nsite holds\n%s", name, a.Site, a.Log, replicas[a.Site].Log())
			}
		}
	}
}

// Sites 1 and 2 restart between step 1 and step 3, so the tagged delta
// is stale at both and the whole view, many frames long, is resent
// untagged: one MsgAppend, acknowledged once. Site 1's resend is lost,
// and a site whose resend went unanswered is not recorded.
func TestStaleResendIsOneAppend(t *testing.T) {
	lowerStreamFrames(t, 1)
	replicas := durableSites(t, 3, 10)
	rt := &recordingTransport{Transport: NewLocal(replicas)}
	c := pqClient(rt, 4)
	got := c.sites.Read()
	if len(got) != 3 {
		t.Fatalf("%d sites answered, want 3", len(got))
	}
	added := quorum.Entry{TS: ts(11, 4), Op: history.Enq(7)}
	view := got[0].Log.Append(added)
	for _, site := range []int{1, 2} {
		replicas[site].Crash()
		if _, err := replicas[site].Restart(); err != nil {
			t.Fatal(err)
		}
	}
	rt.drop = func(site int, req Message) bool {
		return site == 1 && req.Type == MsgAppend && req.Inc == 0
	}
	rt.log = rt.log[:0]
	acked := c.sites.Record([]int{0, 1, 2}, view, 0)
	if fmt.Sprint(acked) != "[0 2]" {
		t.Fatalf("recorded at %v, want [0 2]: site 1's resend was lost", acked)
	}
	sent := rt.of(MsgAppend, 2)
	if len(sent) != 2 || sent[0].resp.Type != MsgStale {
		t.Fatalf("site 2 saw %d requests; want the stale delta then one resend", len(sent))
	}
	resend := sent[1]
	if resend.req.Inc != 0 || len(resend.req.Entries) != view.Len() || resend.resp.Type != MsgAck {
		t.Fatalf("resend: tag %d, %d entries, answered type %d; want the untagged %d-entry view acked",
			resend.req.Inc, len(resend.req.Entries), resend.resp.Type, view.Len())
	}
	if n := len(streamFrames(t, resend.req)); n != view.Len() {
		t.Fatalf("the resend streamed as %d frames, want %d", n, view.Len())
	}
	if !replicas[2].Log().Equal(view) {
		t.Fatalf("site 2 acknowledged the view but holds\n%s", replicas[2].Log())
	}
	if lost := rt.of(MsgAppend, 1); len(lost) != 2 || !lost[1].failed || replicas[1].Log().Contains(added.TS) {
		t.Fatalf("site 1 saw %d requests and holds %s; want its resend lost", len(lost), replicas[1].Log())
	}
	if c.sites.known[2].inc != 0 || c.sites.known[1].inc != 0 {
		t.Fatal("knowledge of a site that answered stale must start over")
	}
}

// TestOpenSitesFailureClosesTheRest: one site directory cannot be
// created; OpenSites reports it and leaves no store open behind it.
func TestOpenSitesFailureClosesTheRest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "site1"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if replicas, err := OpenSites(dir, 3, StoreOptions{}); err == nil || replicas != nil {
		t.Fatalf("OpenSites over an unusable site1: %v, %v", replicas, err)
	}
	if err := os.Remove(filepath.Join(dir, "site1")); err != nil {
		t.Fatal(err)
	}
	replicas, err := OpenSites(dir, 3, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites after the obstacle was removed: %v", err)
	}
	for _, r := range replicas {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

var _ cluster.SiteAccess = (*wireSites)(nil)
