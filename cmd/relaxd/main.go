// relaxd serves replica sites of the replicated taxi priority queue
// over TCP: each site is one goroutine-per-connection server in front
// of a durable site store (write-ahead log + published snapshots).
// Killing a relaxd hard — kill -9, power loss — and restarting it
// recovers each site from its store; the startup line reports exactly
// what recovery found (snapshot entries, WAL entries, repaired bytes),
// and the crash-injection battery in internal/relaxd proves the
// recovered state certifies at the claimed lattice rung.
//
// Two shapes:
//
//	relaxd -sites 5 -listen 127.0.0.1:0 -dir /var/lib/relaxd
//	    one process serving all five sites (goroutine per site), each
//	    on its own port, each with its own store under dir/site<i>
//
//	relaxd -site 2 -listen 127.0.0.1:7412 -dir /var/lib/relaxd/site2
//	    one process serving exactly one site — the process-per-site
//	    deployment CI's kill -9 smoke uses, so one site can be killed
//	    without taking the others down
//
//	relaxd -site 2 -listen 127.0.0.1:7412 -dir /var/lib/relaxd/site2 \
//	       -join -peers 127.0.0.1:7410,127.0.0.1:7411,...
//	    process-per-site with snapshot shipping: before serving, the
//	    site fetches a peer's published snapshot + WAL suffix, refuses
//	    it unless the combined history certifies at the claimed rung,
//	    and installs it durably — how a wiped site rejoins without
//	    replaying client traffic
//
// The server exits cleanly on SIGINT/SIGTERM (final fsync included);
// anything harder is what the WAL is for.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"relaxlattice/internal/relaxd"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "relaxd:", err)
		os.Exit(1)
	}
}

// run starts the configured sites, announces their addresses (and, when
// ready is non-nil, sends them for tests to connect to), and serves
// until stop closes. It is the whole server in testable form.
func run(args []string, w io.Writer, ready chan<- []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("relaxd", flag.ContinueOnError)
	sites := fs.Int("sites", 0, "serve this many sites from one process (site i listens on base port + i; with port 0, each picks a free port)")
	site := fs.Int("site", -1, "serve exactly this site index (process-per-site mode)")
	listen := fs.String("listen", "127.0.0.1:0", "listen address (base address in -sites mode)")
	dir := fs.String("dir", "", "store directory; empty serves ephemeral (non-durable) sites. -sites mode uses dir/site<i>")
	snapshotEvery := fs.Int("snapshot-every", 0, "publish a snapshot every N appended entries, rotating the WAL and compacting its sealed segments; the publish runs off the append path, one at a time, and publishes falling due meanwhile coalesce into one (0 disables)")
	segmentRecords := fs.Int("segment-records", 0, "rotate to a new WAL segment every N records (0 = single segment); snapshots compact sealed segments")
	join := fs.Bool("join", false, "before serving, rebuild state from a peer via snapshot shipping (-site mode; requires -peers)")
	peers := fs.String("peers", "", "comma-separated site addresses in site order, for -join (this site's own slot may be a placeholder)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*sites > 0) == (*site >= 0) {
		return fmt.Errorf("exactly one of -sites or -site is required")
	}
	if *join && (*site < 0 || *peers == "") {
		return fmt.Errorf("-join requires -site and -peers")
	}
	if n := len(strings.Split(*peers, ",")); *join && *site >= n {
		return fmt.Errorf("-site %d is outside the %d sites -peers names", *site, n)
	}
	if *snapshotEvery < 0 {
		return fmt.Errorf("-snapshot-every %d is negative", *snapshotEvery)
	}
	if *segmentRecords < 0 {
		return fmt.Errorf("-segment-records %d is negative", *segmentRecords)
	}
	opts := relaxd.StoreOptions{SegmentRecords: *segmentRecords}

	var replicas []*relaxd.Replica
	var indexes []int
	if *site >= 0 {
		r, info, err := relaxd.OpenReplica(*site, *dir, opts)
		if err != nil {
			return err
		}
		replicas = []*relaxd.Replica{r}
		indexes = []int{*site}
		announceRecovery(w, *site, *dir, info)
		if *join {
			// Join strictly before listening: JoinFrom installs under the
			// replica lock, and a site that is not yet reachable cannot
			// race client appends against the install.
			tr := relaxd.NewPooledTransport(strings.Split(*peers, ","), 0)
			jinfo, err := r.JoinFrom(relaxd.JoinConfig{Transport: tr, Certify: relaxd.PQCertify()})
			tr.Close()
			if err != nil {
				r.Close()
				return fmt.Errorf("join: %w", err)
			}
			fmt.Fprintf(w, "relaxd: site %d joined from site %d (%d snapshot + %d wal entries, certified)\n",
				*site, jinfo.Peer, jinfo.SnapshotEntries, jinfo.WALEntries)
		}
	} else {
		for i := 0; i < *sites; i++ {
			sub := ""
			if *dir != "" {
				sub = filepath.Join(*dir, fmt.Sprintf("site%d", i))
			}
			r, info, err := relaxd.OpenReplica(i, sub, opts)
			if err != nil {
				closeAll(nil, replicas)
				return err
			}
			replicas = append(replicas, r)
			indexes = append(indexes, i)
			announceRecovery(w, i, sub, info)
		}
	}
	for _, r := range replicas {
		r.SnapshotEvery = *snapshotEvery
	}

	servers := make([]*relaxd.SiteServer, len(replicas))
	addrs := make([]string, len(replicas))
	for i, r := range replicas {
		addr, err := siteAddr(*listen, i, *site >= 0)
		if err != nil {
			closeAll(servers[:i], replicas[i:])
			return err
		}
		s, err := relaxd.ListenSite(addr, r)
		if err != nil {
			closeAll(servers[:i], replicas[i:])
			return fmt.Errorf("site %d: %w", indexes[i], err)
		}
		servers[i] = s
		addrs[i] = s.Addr()
		fmt.Fprintf(w, "relaxd: site %d listening on %s\n", indexes[i], s.Addr())
	}
	if ready != nil {
		ready <- addrs
	}
	<-stop
	var first error
	for _, s := range servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	fmt.Fprintln(w, "relaxd: shut down cleanly")
	return first
}

// announceRecovery prints the recovery line — the operator's evidence
// of where a restart landed.
func announceRecovery(w io.Writer, site int, dir string, info relaxd.RecoveryInfo) {
	if dir == "" {
		fmt.Fprintf(w, "relaxd: site %d ephemeral (no store)\n", site)
		return
	}
	fmt.Fprintf(w, "relaxd: site %d recovered %d entries (%d snapshot + %d wal), repaired %d bytes, %d segment(s), compacted through %d\n",
		site, info.SnapshotEntries+info.WALEntries, info.SnapshotEntries, info.WALEntries,
		info.RepairedBytes, info.Segments, info.CompactedThrough)
}

// siteAddr derives site i's listen address from the base address: the
// configured port (0 keeps 0, letting the kernel pick) offset by i in
// -sites mode.
func siteAddr(base string, i int, single bool) (string, error) {
	if single || i == 0 {
		return base, nil
	}
	host, port, err := splitHostPort(base)
	if err != nil {
		return "", err
	}
	if port == 0 {
		return fmt.Sprintf("%s:0", host), nil
	}
	return fmt.Sprintf("%s:%d", host, port+i), nil
}

// splitHostPort parses "host:port" with a numeric port.
func splitHostPort(addr string) (string, int, error) {
	at := strings.LastIndex(addr, ":")
	if at < 0 {
		return "", 0, fmt.Errorf("listen address %q has no port", addr)
	}
	var port int
	if _, err := fmt.Sscanf(addr[at+1:], "%d", &port); err != nil {
		return "", 0, fmt.Errorf("listen address %q has a bad port", addr)
	}
	return addr[:at], port, nil
}

// closeAll releases partially started servers and unserved replicas.
func closeAll(servers []*relaxd.SiteServer, replicas []*relaxd.Replica) {
	for _, s := range servers {
		s.Close()
	}
	for _, r := range replicas {
		r.Close()
	}
}
