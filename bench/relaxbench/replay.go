package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// The layer replay runs after a traced run: it takes the end-of-run
// log and calls each layer's public functions on it directly, outside
// any service, so a layer's cost at this history length stands next to
// the end-to-end number it is part of.

// replayReps is how often each replayed call is timed.
const replayReps = 15

// timeReps times fn reps times and returns the samples in ns.
func timeReps(reps int, fn func() error) (samples, error) {
	out := make(samples, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0)))
	}
	return out, nil
}

func scaled(s samples, div float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v / div
	}
	return out
}

// layerReplay measures wire, replica, store, quorum and relaxcheck on
// log, as a service of the given size would exercise them.
func layerReplay(m metricSet, log quorum.Log, sites int, workRoot string) error {
	n := log.Len()
	if n == 0 {
		return fmt.Errorf("layer replay: empty end-of-run log")
	}
	entries := log.Entries()
	perEntry := float64(n)

	// wire: one MsgLog body carrying the whole log.
	msg := relaxd.Message{Type: relaxd.MsgLog, Entries: entries}
	var body []byte
	enc, err := timeReps(replayReps, func() (err error) {
		body, err = relaxd.AppendMessage(body[:0], msg)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeReps(replayReps, func() error {
		_, err := relaxd.DecodeMessage(body)
		return err
	})
	if err != nil {
		return err
	}
	m.set("wire.encode_ns_per_entry", enc.median()/perEntry, len(enc))
	m.set("wire.decode_ns_per_entry", dec.median()/perEntry, len(dec))
	m.set("wire.bytes_per_entry", float64(len(body))/perEntry, 0)

	// replica: an ephemeral replica (no store, so no fsync) holding the
	// log, handed the three requests a service answers.
	rep, _, err := relaxd.OpenReplica(0, "", relaxd.StoreOptions{})
	if err != nil {
		return err
	}
	handle := func(req relaxd.Message, want byte) error {
		resp, err := rep.Handle(req)
		if err != nil {
			return err
		}
		if resp.Type != want {
			return fmt.Errorf("layer replay: replica answered type %d to a type %d request", resp.Type, req.Type)
		}
		return nil
	}
	if err := handle(relaxd.Message{Type: relaxd.MsgAppend, Entries: entries}, relaxd.MsgAck); err != nil {
		return err
	}
	getlog, err := timeReps(replayReps, func() error {
		return handle(relaxd.Message{Type: relaxd.MsgGetLog}, relaxd.MsgLog)
	})
	if err != nil {
		return err
	}
	fetch, err := timeReps(replayReps, func() error {
		return handle(relaxd.Message{Type: relaxd.MsgFetchState}, relaxd.MsgState)
	})
	if err != nil {
		return err
	}
	// Step 3 as a site sees it: the full view plus the one entry the
	// site is missing.
	view := log
	maxTS, _ := log.MaxTS()
	next := func() quorum.Entry {
		maxTS.Time++
		return quorum.Entry{TS: maxTS, Op: history.Enq(1)}
	}
	var appendSamples samples
	for i := 0; i < replayReps; i++ {
		view = view.Append(next())
		req := relaxd.Message{Type: relaxd.MsgAppend, Entries: view.Entries()}
		t0 := time.Now()
		if err := handle(req, relaxd.MsgAck); err != nil {
			return err
		}
		appendSamples = append(appendSamples, float64(time.Since(t0)))
	}
	m.p50("replica.getlog_us_p50", scaled(getlog, nsPerUS))
	m.p50("replica.fetchstate_us_p50", scaled(fetch, nsPerUS))
	m.p50("replica.append_us_p50", scaled(appendSamples, nsPerUS))

	// quorum: the step-1 merge of one identical log per site, and the
	// η fold over the merged view.
	logs := make([]quorum.Log, sites)
	for i := range logs {
		logs[i] = quorum.LogOf(entries...)
	}
	var sink int
	merge, err := timeReps(replayReps, func() error {
		sink += quorum.Merge(logs...).Len()
		return nil
	})
	if err != nil {
		return err
	}
	fold, err := timeReps(replayReps, func() error {
		sink += len(quorum.PQFold().EvalLog(log))
		return nil
	})
	if err != nil {
		return err
	}
	if sink == 0 {
		return fmt.Errorf("layer replay: merge and fold produced nothing")
	}
	m.p50("quorum.merge_us_p50", scaled(merge, nsPerUS))
	m.p50("quorum.fold_us_p50", scaled(fold, nsPerUS))
	m.set("quorum.fold_ns_per_entry", fold.median()/perEntry, len(fold))

	if err := storeReplay(m, log, next, workRoot); err != nil {
		return err
	}

	// relaxcheck: one-shot certification of the final history.
	lat := core.TaxiSimpleLattice()
	h := log.History()
	certify, err := timeReps(3, func() error {
		if v := relaxcheck.Certify(lat, nominalClaims(lat.Universe), "", h); v != nil {
			return fmt.Errorf("layer replay: %v", v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("relaxcheck.certify_ms", certify.median()/nsPerMS, len(certify))
	return nil
}

// storeReplay measures the durable store on a directory of its own:
// open a store holding log the way a site at that history length does
// (a published snapshot plus a short WAL), then time a one-entry
// append, its fsync, a snapshot and a cold open.
func storeReplay(m metricSet, log quorum.Log, next func() quorum.Entry, workRoot string) error {
	dir, err := os.MkdirTemp(workRoot, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := relaxd.OpenStore(dir, storeOptions())
	if err != nil {
		return err
	}
	closeStore := func() {
		if st != nil {
			st.Close()
		}
	}
	defer closeStore()
	if err := st.Snapshot(log); err != nil {
		return err
	}
	var appendNS, fsyncNS samples
	for i := 0; i < 4*replayReps; i++ {
		e := next()
		t0 := time.Now()
		target, err := st.AppendBatch([]quorum.Entry{e})
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := st.WaitDurable(target); err != nil {
			return err
		}
		appendNS = append(appendNS, float64(t1.Sub(t0)))
		fsyncNS = append(fsyncNS, float64(time.Since(t1)))
		log = log.Append(e)
	}
	m.p50("store.append_us_p50", scaled(appendNS, nsPerUS))
	m.p50("store.fsync_us_p50", scaled(fsyncNS, nsPerUS))

	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	m.set("store.disk_bytes_per_entry", float64(size)/float64(log.Len()), 0)

	if err := st.Close(); err != nil {
		return err
	}
	st = nil
	open, err := timeReps(replayReps, func() error {
		s, recovered, _, err := relaxd.OpenStore(dir, storeOptions())
		if err != nil {
			return err
		}
		if recovered.Len() != log.Len() {
			s.Close()
			return fmt.Errorf("layer replay: cold open recovered %d entries of %d", recovered.Len(), log.Len())
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	m.p50("store.open_ms_p50", scaled(open, nsPerMS))

	st, _, _, err = relaxd.OpenStore(dir, storeOptions())
	if err != nil {
		return err
	}
	snap, err := timeReps(replayReps, func() error { return st.Snapshot(log) })
	if err != nil {
		return err
	}
	m.p50("store.snapshot_ms_p50", scaled(snap, nsPerMS))
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
