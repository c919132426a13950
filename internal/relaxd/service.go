package relaxd

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/specs"
)

// PQClientConfig returns a ClientConfig pre-wired for the replicated
// taxi priority queue — the same object, η, and responder the
// deterministic cluster soaks run — over the given transport at the
// strongest rung of quorum.TaxiAssignments.
func PQClientConfig(t Transport) ClientConfig {
	return ClientConfig{
		Transport: t,
		Quorums:   quorum.TaxiAssignments(t.Sites())["Q1Q2"],
		Base:      specs.PriorityQueue(),
		Fold:      quorum.PQFold(),
		Respond:   cluster.PQResponder,
	}
}

// PQCertify returns the certification gate the taxi service uses for
// snapshot shipping: shipped state must replay clean at the strongest
// rung of the taxi lattice before the joiner serves. A violation is
// reported as wrapping ErrCorrupt — shipped state that does not
// certify is refused exactly like a damaged store.
func PQCertify() func(history.History) error {
	lat := core.TaxiSimpleLattice()
	return func(h history.History) error {
		if v := relaxcheck.Certify(lat, nil, "Q1Q2", h); v != nil {
			return fmt.Errorf("%w: %s", ErrCorrupt, v.Error())
		}
		return nil
	}
}

// OpenSites opens one durable replica per site under dir/site<i>
// (ephemeral replicas when dir is empty) — the goroutine-per-site
// building block shared by the local service, cmd/relaxd, and the
// crash-injection harness. The stores are independent directories, so
// they open concurrently: a cold start pays one site's mkdir, segment
// create and fsyncs, not their sum. On failure the error of the
// lowest-numbered failing site is returned and every replica that did
// open is closed.
func OpenSites(dir string, sites int, opts StoreOptions) ([]*Replica, error) {
	replicas := make([]*Replica, sites)
	errs := make([]error, sites)
	var wg sync.WaitGroup
	for i := range replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := ""
			if dir != "" {
				sub = filepath.Join(dir, fmt.Sprintf("site%d", i))
			}
			replicas[i], _, errs[i] = OpenReplica(i, sub, opts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		for _, r := range replicas {
			if r != nil {
				r.Close()
			}
		}
		return nil, err
	}
	return replicas, nil
}

// SiteServer is one replica serving TCP on its own listener, with the
// accept loop on its own goroutine — the goroutine-per-site shape.
type SiteServer struct {
	Replica *Replica
	lis     net.Listener
}

// ListenSite starts serving r on addr (host:0 picks a free port).
func ListenSite(addr string, r *Replica) (*SiteServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &SiteServer{Replica: r, lis: lis}
	go func() {
		// Serve exits when the listener closes; nothing to report.
		Serve(lis, r)
	}()
	return s, nil
}

// Addr returns the listener's address.
func (s *SiteServer) Addr() string { return s.lis.Addr().String() }

// Close stops accepting and closes the replica cleanly.
func (s *SiteServer) Close() error {
	err := s.lis.Close()
	if cerr := s.Replica.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill hard-stops the server: the listener closes and the replica
// crashes with no final flush — SIGKILL semantics for crash harnesses.
// Only what the WAL already made durable survives a later Restart.
func (s *SiteServer) Kill() {
	s.lis.Close()
	s.Replica.Crash()
}
