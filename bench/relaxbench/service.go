package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// The durable shape every workload runs: the longhaul soak's small
// segments and frequent snapshots, so rotation and compaction fire
// during the measurement, with group commit doing the fsyncs.
const (
	segmentRecords = 100
	snapshotEvery  = 200
	preloadChunk   = 1000
	rtTimeout      = 2 * time.Second
)

func storeOptions() relaxd.StoreOptions {
	return relaxd.StoreOptions{SegmentRecords: segmentRecords}
}

// rungs is the degradation ladder, strongest first.
var rungs = []string{"Q1Q2", "Q1", "Q2", "none"}

// nominalClaims maps each rung to the constraint set its assignment
// realizes when every client runs that rung. One serial client does,
// so the nominal table is a sound claim here, as in relaxcli -certify.
func nominalClaims(u *lattice.Universe) map[string]lattice.Set {
	return map[string]lattice.Set{
		"Q1Q2": u.All(),
		"Q1":   u.Named(core.ConstraintQ1),
		"Q2":   u.Named(core.ConstraintQ2),
		"none": 0,
	}
}

// serviceConfig describes one service instance.
type serviceConfig struct {
	sites   int
	preload []quorum.Entry
	rung    string
	// audit attaches the live checker (with the preload replayed into
	// it); the recovery workload runs no client operations and leaves
	// it off.
	audit bool
}

// service is a running in-process relaxd: durable replicas behind TCP
// listeners on loopback, the pooled transport, the live checker, and
// the one plain protocol client.
type service struct {
	cfg      serviceConfig
	dir      string
	lat      *lattice.Relaxation
	replicas []*relaxd.Replica
	servers  []*relaxd.SiteServer // nil while a site is killed
	addrs    []string
	checker  *relaxcheck.Checker
	tr       *relaxd.PooledTransport
	client   *relaxd.Client
	// acked is every operation a client was told completed, in
	// completion order: the gate's ground truth.
	acked history.History
	// nextClock is the next unused client clock identity.
	nextClock int
	// traced is the decorated client of a -trace 1 run, on a transport
	// of its own; both are built on first use.
	traced   *tracedClient
	tracedTr *relaxd.PooledTransport
}

// openService builds a service under a fresh directory of workRoot:
// open the stores, ship the preload straight into each replica, start
// the listeners, connect the transport. Its wall time is one setup_s
// sample.
func openService(workRoot string, cfg serviceConfig) (*service, error) {
	dir, err := os.MkdirTemp(workRoot, "svc-")
	if err != nil {
		return nil, err
	}
	s := &service{cfg: cfg, dir: dir, lat: core.TaxiSimpleLattice(), nextClock: cfg.sites + 2}
	s.replicas, err = relaxd.OpenSites(dir, cfg.sites, storeOptions())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.servers = make([]*relaxd.SiteServer, cfg.sites)
	s.addrs = make([]string, cfg.sites)
	fail := func(err error) (*service, error) {
		s.close()
		return nil, err
	}
	for _, r := range s.replicas {
		r.SnapshotEvery = snapshotEvery
		if err := shipPreload(r, cfg.preload); err != nil {
			return fail(err)
		}
	}
	if cfg.audit {
		s.checker = relaxcheck.New(s.lat, relaxcheck.Options{Claims: nominalClaims(s.lat.Universe)})
		for _, e := range cfg.preload {
			s.checker.ObserveOp(e.Op)
		}
		s.checker.ObserveClaim(-1, cfg.rung)
	}
	for i := range s.replicas {
		if err := s.listen(i, "127.0.0.1:0"); err != nil {
			return fail(err)
		}
		s.addrs[i] = s.servers[i].Addr()
	}
	s.tr = relaxd.NewPooledTransport(s.addrs, rtTimeout)
	s.client = relaxd.NewClient(s.clientConfig(s.tr), s.takeClock())
	for i := range s.replicas {
		if err := s.client.Ping(i); err != nil {
			return fail(fmt.Errorf("connect site %d: %w", i, err))
		}
	}
	return s, nil
}

// shipPreload hands entries to a replica in preloadChunk pieces, the
// way a client's step 3 would, so the store ends up with the same
// snapshot and segment shape a served history of that length has.
func shipPreload(r *relaxd.Replica, entries []quorum.Entry) error {
	for len(entries) > 0 {
		n := len(entries)
		if n > preloadChunk {
			n = preloadChunk
		}
		resp, err := r.Handle(relaxd.Message{Type: relaxd.MsgAppend, Entries: entries[:n]})
		if err != nil {
			return fmt.Errorf("preload site %d: %w", r.Site(), err)
		}
		if resp.Type != relaxd.MsgAck {
			return fmt.Errorf("preload site %d: reply type %d: %s", r.Site(), resp.Type, resp.Err)
		}
		entries = entries[n:]
	}
	return nil
}

// clientConfig is the priority-queue client configuration over t with
// the live checker attached.
func (s *service) clientConfig(t relaxd.Transport) relaxd.ClientConfig {
	cfg := relaxd.PQClientConfig(t)
	if s.checker != nil {
		cfg.Audit = s.checker
	}
	return cfg
}

func (s *service) takeClock() int {
	c := s.nextClock
	s.nextClock++
	return c
}

func (s *service) listen(site int, addr string) error {
	srv, err := relaxd.ListenSite(addr, s.replicas[site])
	if err != nil {
		return fmt.Errorf("listen site %d: %w", site, err)
	}
	s.servers[site] = srv
	return nil
}

// kill hard-stops a site: listener closed, replica crashed, no flush.
func (s *service) kill(site int) {
	if srv := s.servers[site]; srv != nil {
		srv.Kill()
		s.servers[site] = nil
	}
}

func (s *service) siteDir(site int) string {
	return filepath.Join(s.dir, fmt.Sprintf("site%d", site))
}

// alive reports which sites are serving.
func (s *service) alive() []bool {
	up := make([]bool, len(s.servers))
	for i, srv := range s.servers {
		up[i] = srv != nil
	}
	return up
}

// close tears the service down and removes its directory.
func (s *service) close() {
	if s.tr != nil {
		s.tr.Close()
	}
	if s.tracedTr != nil {
		s.tracedTr.Close()
	}
	for i, srv := range s.servers {
		if srv != nil {
			srv.Close()
		} else if s.replicas[i] != nil {
			s.replicas[i].Close()
		}
	}
	os.RemoveAll(s.dir)
}
