package main

import "fmt"

// metricDef names one metric. The tables below are the single source
// of the names and units: BENCHMARK.json lists the same (a test holds
// them equal) and bench/README.md is their glossary.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd is what a relaxd client sees. On recovery an "operation" is
// one wipe-and-rejoin cycle.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
}

// perLayer is the budget under the end-to-end numbers, from the traced
// half of a -trace 1 run and the layer replay after it.
var perLayer = []metricDef{
	{"client.step1_ms_p50", "ms", "lower"},
	{"client.view_ms_p50", "ms", "lower"},
	{"client.respond_us_p50", "us", "lower"},
	{"client.step3_prep_ms_p50", "ms", "lower"},
	{"client.step3_ms_p50", "ms", "lower"},
	{"client.unattributed_ms_p50", "ms", "lower"},
	{"client.enq_p50_ms", "ms", "lower"},
	{"client.deq_p50_ms", "ms", "lower"},
	{"client.op_p99_ms", "ms", "lower"},
	{"client.op_max_ms", "ms", "lower"},
	{"client.no_response", "count", "lower"},

	{"transport.roundtrips_per_op", "1/op", "lower"},
	{"transport.getlog_rt_ms_p50", "ms", "lower"},
	{"transport.append_rt_ms_p50", "ms", "lower"},
	{"transport.entries_shipped_per_op", "entries/op", "lower"},
	{"transport.req_bytes_per_op", "B/op", "lower"},
	{"transport.resp_bytes_per_op", "B/op", "lower"},
	{"transport.fanout_skew_ms_p50", "ms", "lower"},
	{"transport.errors", "count", "lower"},

	{"wire.encode_ns_per_entry", "ns/entry", "lower"},
	{"wire.decode_ns_per_entry", "ns/entry", "lower"},
	{"wire.bytes_per_entry", "B/entry", "lower"},

	{"replica.getlog_us_p50", "us", "lower"},
	{"replica.append_us_p50", "us", "lower"},
	{"replica.fetchstate_us_p50", "us", "lower"},
	{"replica.restart_ms_p50", "ms", "lower"},

	{"store.append_us_p50", "us", "lower"},
	{"store.fsync_us_p50", "us", "lower"},
	{"store.snapshot_ms_p50", "ms", "lower"},
	{"store.open_ms_p50", "ms", "lower"},
	{"store.disk_bytes_per_entry", "B/entry", "lower"},

	{"quorum.merge_us_p50", "us", "lower"},
	{"quorum.fold_us_p50", "us", "lower"},
	{"quorum.fold_ns_per_entry", "ns/entry", "lower"},

	{"relaxcheck.observe_us_p50", "us", "lower"},
	{"relaxcheck.certify_ms", "ms", "lower"},

	{"ship.fetch_ms_p50", "ms", "lower"},
	{"ship.certify_ms_p50", "ms", "lower"},
	{"ship.install_ms_p50", "ms", "lower"},
	{"ship.suffix_ms_p50", "ms", "lower"},
	{"ship.entries_shipped", "entries", "lower"},

	{"ladder.Q1Q2.ok_frac", "ratio", "higher"},
	{"ladder.Q1Q2.op_p50_ms", "ms", "lower"},
	{"ladder.Q1.ok_frac", "ratio", "higher"},
	{"ladder.Q1.op_p50_ms", "ms", "lower"},
	{"ladder.Q2.ok_frac", "ratio", "higher"},
	{"ladder.Q2.op_p50_ms", "ms", "lower"},
	{"ladder.none.ok_frac", "ratio", "higher"},
	{"ladder.none.op_p50_ms", "ms", "lower"},
	{"ladder.down0.op_p50_ms", "ms", "lower"},
	{"ladder.down1.op_p50_ms", "ms", "lower"},
	{"ladder.down2.op_p50_ms", "ms", "lower"},
	{"ladder.down3.op_p50_ms", "ms", "lower"},

	{"proc.cpu_s_per_kop", "s/kop", "lower"},
	{"proc.alloc_kb_per_op", "KB/op", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
}

// metricValue is one measured metric. N is the number of samples
// behind a percentile (0 for counts and ratios).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"`
}

// metricSet holds a run's metrics by name.
type metricSet map[string]metricValue

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric under a name from the tables; any other name is
// a bug in the benchmark.
func (m metricSet) set(name string, value float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("relaxbench: metric %q is not in the tables", name))
	}
	m[name] = metricValue{Value: value, Unit: unit, N: n}
}

// p50 records the median of s under name; a layer the workload never
// entered has no samples and stays out of the set.
func (m metricSet) p50(name string, s samples) {
	if len(s) > 0 {
		m.set(name, s.median(), len(s))
	}
}
