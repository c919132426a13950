// The long-haul mode: a real networked relaxd service — TCP listeners,
// durable segmented WALs, pooled multiplexed transport — soaked under
// sustained client load while a killer goroutine SIGKILLs sites
// continuously and periodically wipes a victim's store entirely,
// forcing a rejoin via snapshot shipping. The online relaxation
// checker audits every completed operation throughout, the final
// merged log must certify at the strongest taxi rung, and the whole
// observed history is certified afresh at the end (the
// audit-sidecar discipline, in-process). Operations serialize through
// a global mutex — the same concurrency grain the deterministic
// cluster gives the protocol — so the rung claim is the one the sim
// oracle proves; the concurrency under test is everything below that:
// kills and rejoins racing live ops, parallel protocol fanout over the
// mux, and the group-commit window inside each store.
package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// longhaulConfig gathers the long-haul flags.
type longhaulConfig struct {
	sites       int
	clients     int
	ops         int
	seed        int64
	killEvery   time.Duration // dwell between kill cycles
	wipeEvery   int           // every Nth kill cycle wipes the store
	dir         string        // store root; empty uses a temp dir
	historyPath string
}

// lhService is the running service: replicas, their servers, and the
// per-site lock the killer takes to swap a site out and back in.
type lhService struct {
	cfg      longhaulConfig
	addrs    []string
	dirs     []string
	mu       sync.Mutex // guards replicas/servers during kill/heal swaps
	replicas []*relaxd.Replica
	servers  []*relaxd.SiteServer
}

// storeOptions is the long-haul durability shape: group commit does
// the fsyncs (WaitDurable per request), snapshots and small segments
// keep rotation, compaction, and shipping all firing during the soak.
func (c longhaulConfig) storeOptions() relaxd.StoreOptions {
	return relaxd.StoreOptions{SegmentRecords: 100}
}

func runLonghaul(w io.Writer, cfg longhaulConfig) error {
	dir := cfg.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "relaxsoak-longhaul-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	svc := &lhService{cfg: cfg}
	replicas, err := relaxd.OpenSites(dir, cfg.sites, cfg.storeOptions())
	if err != nil {
		return err
	}
	svc.replicas = replicas
	svc.dirs = make([]string, cfg.sites)
	svc.servers = make([]*relaxd.SiteServer, cfg.sites)
	svc.addrs = make([]string, cfg.sites)
	for i, r := range replicas {
		r.SnapshotEvery = 200
		svc.dirs[i] = filepath.Join(dir, fmt.Sprintf("site%d", i))
		s, err := relaxd.ListenSite("127.0.0.1:0", r)
		if err != nil {
			return err
		}
		svc.servers[i] = s
		svc.addrs[i] = s.Addr()
	}
	defer func() {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		for _, s := range svc.servers {
			if s != nil {
				s.Close()
			}
		}
	}()

	lat := core.TaxiSimpleLattice()
	checker := relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe, cluster.TaxiLadder(cfg.sites))})
	checker.ObserveClaim(-1, "Q1Q2")

	tr := relaxd.NewPooledTransport(svc.addrs, 2*time.Second)
	defer tr.Close()
	clients := make([]*relaxd.Client, cfg.clients)
	for i := range clients {
		ccfg := relaxd.PQClientConfig(tr)
		ccfg.Audit = checker
		clients[i] = relaxd.NewClient(ccfg, cfg.sites+1+i)
	}

	// The workload: client goroutines issue seeded ops, each whole op
	// under the global mutex (the oracle's concurrency grain). Counter
	// updates ride the same mutex.
	var (
		opMu     sync.Mutex
		issued   int
		observed history.History
		counts   = map[string]int{}
		fatal    error
		wg       sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			cl := clients[c]
			for {
				var inv history.Invocation
				if rng.Float64() < 0.45 {
					inv = history.DeqInv()
				} else {
					inv = history.EnqInv(rng.Intn(9) + 1)
				}
				opMu.Lock()
				if fatal != nil || issued >= cfg.ops {
					opMu.Unlock()
					return
				}
				issued++
				op, err := cl.Execute(inv)
				switch {
				case err == nil:
					observed = append(observed, op)
					counts["ok"]++
				case errors.Is(err, cluster.ErrNoResponse):
					counts["no-response"]++
				case errors.Is(err, cluster.ErrUnavailable):
					counts["unavailable"]++
				case errors.Is(err, relaxd.ErrNoQuorumAck):
					counts["no-quorum-ack"]++
				default:
					fatal = fmt.Errorf("op %d (%s): %w", issued-1, inv, err)
				}
				opMu.Unlock()
			}
		}(c)
	}

	// The killer: one victim at a time is hard-killed (listener down,
	// replica crashed, no flush), dwells dead while ops continue on the
	// surviving quorum, and comes back — every wipeEvery-th cycle with
	// a destroyed store, so the only way back is snapshot shipping.
	var kills, wipes int
	killerDone := make(chan error, 1)
	stopKiller := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x6b696c6c))
		cycle := 0
		for {
			select {
			case <-stopKiller:
				killerDone <- nil
				return
			case <-time.After(cfg.killEvery):
			}
			cycle++
			victim := rng.Intn(cfg.sites)
			wipe := cycle%cfg.wipeEvery == 0
			if err := svc.killAndHeal(victim, wipe); err != nil {
				killerDone <- fmt.Errorf("kill cycle %d (site %d, wipe=%v): %w", cycle, victim, wipe, err)
				return
			}
			kills++
			if wipe {
				wipes++
			}
		}
	}()

	wg.Wait()
	close(stopKiller)
	if err := <-killerDone; err != nil {
		return err
	}
	if fatal != nil {
		return fatal
	}
	// The acceptance bar demands at least one full wipe-and-rejoin; a
	// short run that never reached a wipe cycle does one now, with the
	// service otherwise quiet.
	if wipes == 0 {
		if err := svc.killAndHeal(cfg.sites-1, true); err != nil {
			return fmt.Errorf("final wipe-and-rejoin: %w", err)
		}
		kills++
		wipes++
	}

	fmt.Fprintf(w, "longhaul sites=%d clients=%d ops=%d ok=%d no-response=%d unavailable=%d no-quorum-ack=%d\n",
		cfg.sites, cfg.clients, issued, counts["ok"], counts["no-response"], counts["unavailable"], counts["no-quorum-ack"])
	fmt.Fprintf(w, "longhaul kills=%d wipes=%d (every site recovered, wiped sites rejoined via snapshot shipping)\n",
		kills, wipes)

	if cfg.historyPath != "" {
		if err := obs.WriteFile(cfg.historyPath, func(f io.Writer) error {
			return history.WriteLines(f, observed)
		}); err != nil {
			return err
		}
	}

	// Live verdict: the checker that watched every completed op.
	if v := checker.Violation(); v != nil {
		fmt.Fprintf(w, "  FAIL: live checker: %v\n", v)
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintf(w, "longhaul live-checker level=%s audited=%d verdict=certified\n", checker.Level(), checker.Steps())

	// Final-state verdict: the merged durable logs certify at the
	// strongest rung.
	svc.mu.Lock()
	logs := make([]quorum.Log, cfg.sites)
	for i, r := range svc.replicas {
		logs[i] = r.Log()
	}
	svc.mu.Unlock()
	merged := quorum.Merge(logs...)
	if merged.Len() != counts["ok"] {
		// Lost acks can legitimately leave extra entries; missing ones
		// cannot.
		if merged.Len() < counts["ok"] {
			return fmt.Errorf("merged log holds %d entries, %d ops completed", merged.Len(), counts["ok"])
		}
		fmt.Fprintf(w, "longhaul note: %d unacked entries surfaced in the merged log\n", merged.Len()-counts["ok"])
	}
	if v := relaxcheck.Certify(lat, nil, "Q1Q2", merged.History()); v != nil {
		fmt.Fprintf(w, "  FAIL: merged log: %+v\n", v)
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintf(w, "longhaul merged-log entries=%d verdict=certified\n", merged.Len())

	// Sidecar verdict: the observed history — the live checker's input,
	// in its order — certified afresh, as `relaxsoak -mode audit`
	// certifies an export.
	if v := relaxcheck.Certify(lat, nil, "Q1Q2", observed); v != nil {
		fmt.Fprintf(w, "  FAIL: sidecar replay: %v\n", v)
		return fmt.Errorf("lattice-level violations detected")
	}
	fmt.Fprintf(w, "longhaul sidecar-replay audited=%d verdict=certified\n", len(observed))
	fmt.Fprintln(w, "longhaul survived the kill-9 soak inside its claimed lattice level")
	return nil
}

// killAndHeal hard-kills one site, dwells with it dead, and brings it
// back — after destroying its store first when wipe is set, in which
// case the only way back to serving is a certified snapshot-shipping
// join from the surviving quorum.
func (svc *lhService) killAndHeal(victim int, wipe bool) error {
	svc.mu.Lock()
	srv := svc.servers[victim]
	r := svc.replicas[victim]
	svc.servers[victim] = nil
	svc.mu.Unlock()

	srv.Kill()
	time.Sleep(svc.cfg.killEvery / 2)

	if wipe {
		if err := os.RemoveAll(svc.dirs[victim]); err != nil {
			return err
		}
	}
	if _, err := r.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if wipe {
		// Join strictly before listening: the installed state cannot race
		// client appends while the site is unreachable. Each attempt
		// dials afresh: a transport holds a refused dial for its next
		// requests, which would skip the peer on the retries.
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			jtr := relaxd.NewPooledTransport(svc.addrs, 2*time.Second)
			_, err = r.JoinFrom(relaxd.JoinConfig{Transport: jtr, Certify: relaxd.PQCertify()})
			jtr.Close()
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("join: %w", err)
		}
	}
	srv, err := relaxd.ListenSite(svc.addrs[victim], r)
	if err != nil {
		return fmt.Errorf("re-listen: %w", err)
	}
	svc.mu.Lock()
	svc.servers[victim] = srv
	svc.mu.Unlock()
	return nil
}
