package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxd"
)

// workloadDef names one workload and why it exists; BENCHMARK.json
// carries the same list.
type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"short-history", "fresh 3-site service every 500 ops: fixed per-op costs (two fanouts, one group-commit fsync) dominate, O(history) work is bypassed", (*run).shortHistory},
	{"long-history", "3 sites preloaded to 8000 entries: every op ships and re-folds the whole log, so codec, merge and fold dominate and fsync is bypassed", (*run).longHistory},
	{"ladder-faults", "5 sites, the four rungs with 0..3 sites killed: gating, wide fanout and dead-site dials; availability must equal the quorum table", (*run).ladderFaults},
	{"recovery", "3 sites at 32000 entries, no client load: cold restarts and wipe-and-rejoin cycles exercise store open, snapshot shipping and certify", (*run).recovery},
}

// sizes fixes each workload's shape. A run measures for -seconds by
// repeating whole units (epochs, blocks, sweeps, cycle groups) of these
// sizes, so sites, mix, history lengths and store shape never change
// with the time budget.
type sizes struct {
	epochOps        int // short-history: operations per fresh service
	longPreload     int // long-history: resident entries before the first operation
	longBlock       int // long-history: operations per block
	ladderSites     int
	ladderPreload   int // ladder-faults: Enq entries per fresh service
	ladderPhaseOps  int // ladder-faults: operations per (rung, sites down) phase
	recoveryPreload int // recovery: entries the last snapshot covers
	recoverySuffix  int // recovery: WAL entries past that snapshot
	coldPerRejoin   int // recovery: cold restarts per wipe-and-rejoin
	setupRepeats    int // set-ups per run on workloads that need only one service
}

var fullSizes = sizes{
	epochOps: 500, longPreload: 8000, longBlock: 20,
	ladderSites: 5, ladderPreload: 400, ladderPhaseOps: 60,
	recoveryPreload: 32000, recoverySuffix: 150, coldPerRejoin: 3,
	setupRepeats: 3,
}

var smokeSizes = sizes{
	epochOps: 40, longPreload: 300, longBlock: 10,
	ladderSites: 5, ladderPreload: 40, ladderPhaseOps: 20,
	recoveryPreload: 1000, recoverySuffix: 50, coldPerRejoin: 1,
	setupRepeats: 2,
}

// maxDown is how many sites the ladder kills, one more per phase.
const maxDown = 3

// Operation outcomes. ok and no-response (a Deq that finds the queue
// empty) are completed operations; unavailable is a refusal, which is
// the correct outcome exactly when the quorum table predicts it.
const (
	outcomeOK          = "ok"
	outcomeNoResponse  = "no-response"
	outcomeUnavailable = "unavailable"
	outcomeNoAck       = "no-quorum-ack"
	outcomeError       = "error"
)

func outcomeOf(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, cluster.ErrNoResponse):
		return outcomeNoResponse
	case errors.Is(err, cluster.ErrUnavailable):
		return outcomeUnavailable
	case errors.Is(err, relaxd.ErrNoQuorumAck):
		return outcomeNoAck
	}
	return outcomeError
}

// executor runs one invocation at a rung; "" is the base assignment.
type executor interface {
	execute(inv history.Invocation, gate quorum.Assignment, rung string) (history.Op, error)
}

// plainClient is the undecorated client the measured numbers come from.
type plainClient struct{ c *relaxd.Client }

func (p plainClient) execute(inv history.Invocation, gate quorum.Assignment, rung string) (history.Op, error) {
	if rung == "" {
		return p.c.Execute(inv)
	}
	return p.c.ExecuteUnder(inv, gate, rung)
}

// opStats accumulates one half (plain or traced) of a run.
type opStats struct {
	attempted  int
	completed  int // ok + no-response
	noResponse int
	refused    int // unavailable, as the quorum table predicts
	failed     int // anything else
	failures   map[string]int
	lat        samples // ms, completed operations
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
}

func (st *opStats) fail(kind string) {
	st.failed++
	if st.failures == nil {
		st.failures = map[string]int{}
	}
	st.failures[kind]++
}

func (st *opStats) opsPerSec() float64 {
	if st.wall <= 0 {
		return 0
	}
	return float64(st.completed) / st.wall.Seconds()
}

// procMark reads the process-wide counters the proc.* metrics are
// deltas of.
type procMark struct {
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
}

func markProc() procMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procMark{cpu: cpuTime(), alloc: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer; a zero
	// reading then shows up as a zero proc.* metric.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func (st *opStats) addProc(before, after procMark) {
	st.cpu += after.cpu - before.cpu
	st.allocBytes += after.alloc - before.alloc
	st.gcPause += after.gcPause - before.gcPause
}

// phase is what one operation loop did, or several summed.
type phase struct {
	attempted int
	completed int
	lat       samples
}

func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.completed += q.completed
	p.lat = append(p.lat, q.lat...)
}

// runOps drives n invocations through ex in a closed loop: the next is
// sent when the previous returns. Each outcome is held against what
// gate predicts for the sites now serving.
func (s *service) runOps(ex executor, g *generator, n int, gate quorum.Assignment, rung string, st *opStats) phase {
	alive := s.alive()
	var ph phase
	before := markProc()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		inv := g.next()
		predicted := gate.HasQuorum(inv.Name, alive)
		start := time.Now()
		op, err := ex.execute(inv, gate, rung)
		ms := float64(time.Since(start)) / nsPerMS
		st.attempted++
		ph.attempted++
		switch out := outcomeOf(err); {
		case (out == outcomeOK || out == outcomeNoResponse) && !predicted:
			st.fail("served-without-quorum")
		case out == outcomeOK || out == outcomeNoResponse:
			if out == outcomeOK {
				s.acked = append(s.acked, op)
			} else {
				st.noResponse++
			}
			st.completed++
			ph.completed++
			st.lat = append(st.lat, ms)
			ph.lat = append(ph.lat, ms)
		case out == outcomeUnavailable && !predicted:
			st.refused++
		default:
			st.fail(out)
		}
	}
	st.wall += time.Since(t0)
	st.addProc(before, markProc())
	return ph
}

// run is one benchmark run of one workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	workRoot string
	// tracer is non-nil in a -trace 1 run, which alternates plain and
	// traced units so the two halves see the same machine and the same
	// history lengths.
	tracer *opTracer

	setup  samples // seconds per service set-up
	sites  int     // of the service last set up
	plain  opStats
	traced opStats
	layer  metricSet
	// problems are the correctness failures; any makes the run
	// incorrect and the command exit non-zero.
	problems []string
	// lastLog is the merged end-of-run log the layer replay works on.
	lastLog quorum.Log
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// more reports whether another unit fits the time budget. A traced run
// needs at least one unit of each half.
func (r *run) more(unit int) bool {
	if unit == 0 || (r.tracer != nil && unit < 2) {
		return true
	}
	return (r.plain.wall + r.traced.wall).Seconds() < r.seconds
}

// endUnit runs between units, outside the timed loops.
func (r *run) endUnit() {
	if r.tracer == nil {
		return
	}
	if err := r.tracer.flush(); err != nil {
		r.problem("%s: span stream: %v", r.workload, err)
	}
}

// isTraced reports whether unit belongs to the traced half.
func (r *run) isTraced(unit int) bool { return r.tracer != nil && unit%2 == 1 }

func (r *run) stats(unit int) *opStats {
	if r.isTraced(unit) {
		return &r.traced
	}
	return &r.plain
}

// open sets a service up and records the set-up time.
func (r *run) open(cfg serviceConfig) (*service, error) {
	t0 := time.Now()
	svc, err := openService(r.workRoot, cfg)
	if err != nil {
		return nil, err
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	r.sites = cfg.sites
	return svc, nil
}

// openRepeated sets the same service up setupRepeats times, so setup_s
// is a median on workloads that need a single service, and keeps the
// last.
func (r *run) openRepeated(cfg serviceConfig) (*service, error) {
	for i := 1; ; i++ {
		svc, err := r.open(cfg)
		if err != nil || i >= r.sz.setupRepeats {
			return svc, err
		}
		svc.close()
	}
}

// executor returns the client for a unit: the plain one, or the
// service's decorated one on a traced unit.
func (r *run) executor(svc *service, unit int) executor {
	if !r.isTraced(unit) {
		return plainClient{svc.client}
	}
	if svc.traced == nil {
		svc.tracedTr = relaxd.NewPooledTransport(svc.addrs, rtTimeout)
		svc.traced = svc.newTracedClient(r.tracer, svc.tracedTr)
	}
	return svc.traced
}

// finish runs the correctness gate on an operation workload's service
// and tears it down.
func (r *run) finish(svc *service) {
	merged, err := svc.gate()
	if err != nil {
		r.problem("%s: %v", r.workload, err)
	}
	r.lastLog = merged
	svc.close()
}

func baseGate(sites int) quorum.Assignment { return quorum.TaxiAssignments(sites)["Q1Q2"] }

// shortHistory: every epoch is epochOps operations on a fresh, empty
// 3-site service, so resident history never exceeds epochOps.
func (r *run) shortHistory() error {
	const sites = 3
	g := newGenerator(r.seed)
	for unit := 0; r.more(unit); unit++ {
		svc, err := r.open(serviceConfig{sites: sites, rung: "Q1Q2", audit: true})
		if err != nil {
			return err
		}
		svc.runOps(r.executor(svc, unit), g, r.sz.epochOps, baseGate(sites), "", r.stats(unit))
		r.finish(svc)
		r.endUnit()
	}
	return nil
}

// longHistory: one 3-site service preloaded to longPreload entries;
// every operation moves and re-folds the whole log.
func (r *run) longHistory() error {
	const sites = 3
	svc, err := r.openRepeated(serviceConfig{
		sites: sites, rung: "Q1Q2", audit: true,
		preload: preloadMixed(r.seed, r.sz.longPreload, sites+1),
	})
	if err != nil {
		return err
	}
	g := newGenerator(r.seed)
	for unit := 0; r.more(unit); unit++ {
		svc.runOps(r.executor(svc, unit), g, r.sz.longBlock, baseGate(sites), "", r.stats(unit))
		r.endUnit()
	}
	r.finish(svc)
	return nil
}

// ladderFaults: a sweep gives each rung a fresh 5-site service
// preloaded with Enq entries and runs the same seeded stream through
// four phases with 0..3 sites killed. Kills happen between
// operations, so gating is static and no half-written entry arises.
func (r *run) ladderFaults() error {
	sites := r.sz.ladderSites
	assignments := quorum.TaxiAssignments(sites)
	preload := preloadEnq(r.seed, r.sz.ladderPreload, sites+1)
	// cells sums each (rung, sites down) phase over the sweeps.
	cells := map[string]*[maxDown + 1]phase{}
	for _, rung := range rungs {
		cells[rung] = &[maxDown + 1]phase{}
	}
	for unit := 0; r.more(unit); unit++ {
		for _, rung := range rungs {
			svc, err := r.open(serviceConfig{sites: sites, rung: rung, audit: true, preload: preload})
			if err != nil {
				return err
			}
			g := newGenerator(r.seed)
			for down := 0; down <= maxDown; down++ {
				if down > 0 {
					svc.kill(sites - down)
				}
				ph := svc.runOps(r.executor(svc, unit), g, r.sz.ladderPhaseOps, assignments[rung], rung, r.stats(unit))
				// Unless tracing, every sweep feeds the ladder.* numbers;
				// a traced run reports its traced sweeps.
				if r.tracer == nil || r.isTraced(unit) {
					cells[rung][down].add(ph)
				}
			}
			r.finish(svc)
		}
		r.endUnit()
	}
	var byDown [maxDown + 1]samples
	for _, rung := range rungs {
		var whole phase
		for down, c := range cells[rung] {
			whole.add(c)
			byDown[down] = append(byDown[down], c.lat...)
		}
		if whole.attempted > 0 {
			r.layer.set("ladder."+rung+".ok_frac", float64(whole.completed)/float64(whole.attempted), whole.attempted)
		}
		r.layer.p50("ladder."+rung+".op_p50_ms", whole.lat)
	}
	for down, lat := range byDown {
		r.layer.p50(fmt.Sprintf("ladder.down%d.op_p50_ms", down), lat)
	}
	return nil
}

// joinMarks are the wall-clock marks of one traced JoinFrom.
type joinMarks struct {
	fetch      [2]int64
	certify    [2]int64
	afterFetch int64
	installed  int64
	ready      int64
	entries    int
}

// markedTransport times the state fetch of a join.
type markedTransport struct {
	relaxd.Transport
	now   func() int64
	marks *joinMarks
}

func (mt markedTransport) RoundTrip(site int, req relaxd.Message) (relaxd.Message, error) {
	t0 := mt.now()
	resp, err := mt.Transport.RoundTrip(site, req)
	if req.Type == relaxd.MsgFetchState && err == nil {
		mt.marks.fetch = [2]int64{t0, mt.now()}
		mt.marks.entries = len(resp.Entries) + len(resp.Wal)
	}
	return resp, err
}

// recovery: no client load. A group is coldPerRejoin cold restarts
// (Kill, Restart, ListenSite, first Ping answered) and one
// wipe-and-rejoin (Kill, remove the site's directory, Restart,
// JoinFrom a peer with certification, ListenSite, first Ping
// answered). The rejoin cycles are the workload's operations.
func (r *run) recovery() error {
	const sites = 3
	preload := preloadMixed(r.seed, r.sz.recoveryPreload+r.sz.recoverySuffix, sites+1)
	svc, err := r.openRepeated(serviceConfig{sites: sites, rung: "Q1Q2", preload: preload})
	if err != nil {
		return err
	}
	defer svc.close()
	var restartMS, fetchMS, certifyMS, installMS, suffixMS samples
	shipped := 0
	victim := 0
	for unit := 0; r.more(unit); unit++ {
		st := r.stats(unit)
		for c := 0; c < r.sz.coldPerRejoin; c++ {
			ms, err := svc.coldRestart(victim % sites)
			if err != nil {
				return err
			}
			restartMS = append(restartMS, ms)
			victim++
		}
		var marks *joinMarks
		if r.isTraced(unit) {
			marks = &joinMarks{}
		}
		st.attempted++
		before := markProc()
		t0 := time.Now()
		err := svc.rejoin(victim%sites, r.tracer, marks)
		d := time.Since(t0)
		victim++
		st.wall += d
		st.addProc(before, markProc())
		if err != nil {
			st.fail("rejoin")
			r.problem("recovery: %v", err)
			break
		}
		st.completed++
		st.lat = append(st.lat, float64(d)/nsPerMS)
		if marks != nil {
			fetchMS = append(fetchMS, float64(marks.fetch[1]-marks.fetch[0])/nsPerMS)
			certifyMS = append(certifyMS, float64(marks.certify[1]-marks.certify[0])/nsPerMS)
			installMS = append(installMS, float64(marks.installed-marks.afterFetch)/nsPerMS)
			suffixMS = append(suffixMS, float64(marks.ready-marks.installed)/nsPerMS)
			shipped = marks.entries
		}
	}
	r.layer.p50("replica.restart_ms_p50", restartMS)
	if r.tracer != nil {
		r.layer.p50("ship.fetch_ms_p50", fetchMS)
		r.layer.p50("ship.certify_ms_p50", certifyMS)
		r.layer.p50("ship.install_ms_p50", installMS)
		r.layer.p50("ship.suffix_ms_p50", suffixMS)
		r.layer.set("ship.entries_shipped", float64(shipped), len(fetchMS))
	}

	// The gate: every site, recovered or rejoined, holds exactly the
	// preloaded history, and that history certifies.
	want := quorum.LogOf(preload...)
	logs := make([]quorum.Log, sites)
	for i, rep := range svc.replicas {
		logs[i] = rep.Log()
		if !logs[i].Equal(want) {
			r.problem("recovery: site %d holds %d entries after the cycles, the preload has %d", i, logs[i].Len(), want.Len())
		}
	}
	if err := checkRecovered(svc.lat, "Q1Q2", want.History(), logs); err != nil {
		r.problem("recovery: %v", err)
	}
	r.lastLog = want
	return nil
}

// pingFresh dials site on a new transport and waits for its Pong: what
// the first client to come back sees.
func (s *service) pingFresh(site int) error {
	tr := relaxd.NewPooledTransport(s.addrs, rtTimeout)
	defer tr.Close()
	resp, err := tr.RoundTrip(site, relaxd.Message{Type: relaxd.MsgPing})
	if err != nil {
		return err
	}
	if resp.Type != relaxd.MsgPong {
		return fmt.Errorf("site %d answered a ping with type %d", site, resp.Type)
	}
	return nil
}

// coldRestart kills a site and brings it back from its own store. It
// returns how long Restart (the store open and log recovery) took.
func (s *service) coldRestart(site int) (restartMS float64, err error) {
	s.kill(site)
	t0 := time.Now()
	if _, err := s.replicas[site].Restart(); err != nil {
		return 0, fmt.Errorf("cold restart of site %d: %w", site, err)
	}
	restartMS = float64(time.Since(t0)) / nsPerMS
	if err := s.listen(site, s.addrs[site]); err != nil {
		return 0, err
	}
	return restartMS, s.pingFresh(site)
}

// rejoin kills a site, destroys its store and brings it back through
// snapshot shipping. With marks set, the join's public seams record
// where its time went.
func (s *service) rejoin(site int, t *opTracer, marks *joinMarks) error {
	s.kill(site)
	if err := os.RemoveAll(s.siteDir(site)); err != nil {
		return err
	}
	if _, err := s.replicas[site].Restart(); err != nil {
		return fmt.Errorf("restart of wiped site %d: %w", site, err)
	}
	peers := relaxd.NewPooledTransport(s.addrs, rtTimeout)
	defer peers.Close()
	cfg := relaxd.JoinConfig{Transport: peers, Certify: relaxd.PQCertify()}
	if marks != nil {
		cfg.Transport = markedTransport{Transport: peers, now: t.now, marks: marks}
		certify := cfg.Certify
		cfg.Certify = func(h history.History) error {
			t0 := t.now()
			err := certify(h)
			marks.certify = [2]int64{t0, t.now()}
			return err
		}
		cfg.Hooks = relaxd.JoinHooks{
			AfterFetch:   func(int) error { marks.afterFetch = t.now(); return nil },
			AfterInstall: func() error { marks.installed = t.now(); return nil },
			BeforeReady:  func() error { marks.ready = t.now(); return nil },
		}
	}
	if _, err := s.replicas[site].JoinFrom(cfg); err != nil {
		return fmt.Errorf("join of site %d: %w", site, err)
	}
	if err := s.listen(site, s.addrs[site]); err != nil {
		return err
	}
	return s.pingFresh(site)
}
