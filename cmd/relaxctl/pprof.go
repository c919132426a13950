package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"

	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
)

// pprofOnce guards expvar.Publish, which panics on duplicate names if
// startPprof runs twice in one process (tests drive run() repeatedly).
var pprofOnce sync.Once

// startPprof serves net/http/pprof and expvar on addr, and installs the
// runtime observability registry: scheduling-dependent metrics (view-
// cache hit rates) are published live at /debug/vars under
// "relaxlattice" — deliberately kept out of the deterministic -metrics
// snapshot, whose bytes must not depend on the scheduler. Listening
// starts synchronously so a bad address fails the command; serving
// happens in the background for the process lifetime.
func startPprof(addr string) error {
	var rt *obs.Registry
	pprofOnce.Do(func() {
		rt = obs.NewRegistry()
		expvar.Publish("relaxlattice", expvar.Func(func() any { return rt.Snapshot() }))
	})
	if rt != nil {
		quorum.ObserveRuntime(rt)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pprof and expvar on http://%s/debug/pprof (runtime metrics at /debug/vars)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "relaxctl: pprof server:", err)
		}
	}()
	return nil
}
