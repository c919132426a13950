package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"relaxlattice/internal/obs"
)

// Analysis is the critical-path attribution of one span stream: where
// logical time went, per span name (protocol step) and per degradation
// rung. Built by Analyze, rendered by cmd/relaxtrace.
//
// The critical path of a root operation is computed by the classic
// backward sweep: starting from the root's end, repeatedly step to the
// child span that finished last before the current frontier; gaps no
// child covers are the parent's own (self) time. Summing each span's
// contribution by name yields the per-step attribution; summing by the
// nearest enclosing "rung" attribute yields the per-rung attribution
// the CALM cost sweep needs.
type Analysis struct {
	Spans    int // total spans in the stream
	Roots    int // spans with parent 0
	Links    int // happens-before edges beyond parent/child
	Orphans  int // spans whose parent is absent from the stream
	Wall     int64
	Critical int64
	ByName   []NameStat
	ByRung   []RungStat
}

// NameStat aggregates spans sharing a name (a protocol step).
type NameStat struct {
	Name     string
	Count    int
	Total    int64 // sum of durations
	Self     int64 // duration not covered by child spans
	Critical int64 // contribution to root critical paths
}

// RungStat aggregates critical-path time by degradation rung (the
// nearest enclosing span's "rung" attribute; "-" when none).
type RungStat struct {
	Rung     string
	Count    int // spans attributed to the rung
	Total    int64
	Critical int64
}

type node struct {
	span     Span
	children []*node // in stream order
}

// Analyze rebuilds the happens-before DAG from a span stream and
// attributes logical time. The input order is the deterministic stream
// order; the output is deterministic for a deterministic input.
func Analyze(spans []Span) Analysis {
	an := Analysis{Spans: len(spans)}
	nodes := make(map[SpanID]*node, len(spans))
	var order []*node
	for _, sp := range spans {
		n := &node{span: sp}
		nodes[sp.ID] = n
		order = append(order, n)
		an.Links += len(sp.Links)
	}
	var roots []*node
	for _, n := range order {
		if n.span.Parent == 0 {
			an.Roots++
			roots = append(roots, n)
			continue
		}
		p, ok := nodes[n.span.Parent]
		if !ok {
			an.Orphans++
			roots = append(roots, n) // analyze the orphan subtree anyway
			continue
		}
		p.children = append(p.children, n)
	}

	names := map[string]*NameStat{}
	rungs := map[string]*RungStat{}
	stat := func(name string) *NameStat {
		s := names[name]
		if s == nil {
			s = &NameStat{Name: name}
			names[name] = s
		}
		return s
	}
	rung := func(name string) *RungStat {
		s := rungs[name]
		if s == nil {
			s = &RungStat{Rung: name}
			rungs[name] = s
		}
		return s
	}

	// Total, self, and per-rung totals: a straight walk.
	var walk func(n *node, inheritedRung string)
	walk = func(n *node, inheritedRung string) {
		r := inheritedRung
		if v, ok := n.span.Attr("rung"); ok {
			r = v
		}
		s := stat(n.span.Name)
		s.Count++
		s.Total += n.span.Dur()
		s.Self += selfTime(n)
		rs := rung(r)
		rs.Count++
		rs.Total += n.span.Dur()
		for _, c := range n.children {
			walk(c, r)
		}
	}
	for _, n := range roots {
		walk(n, "-")
		an.Wall += n.span.Dur()
	}

	// Critical path: backward sweep per root. limit clips a span's
	// effective end when only its prefix is on the parent's path.
	var sweep func(n *node, inheritedRung string, limit int64) int64
	sweep = func(n *node, inheritedRung string, limit int64) int64 {
		r := inheritedRung
		if v, ok := n.span.Attr("rung"); ok {
			r = v
		}
		cur := n.span.End
		if cur > limit {
			cur = limit
		}
		if cur <= n.span.Start {
			return 0
		}
		kids := append([]*node(nil), n.children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].span.End > kids[j].span.End })
		var self int64
		var total int64
		for _, c := range kids {
			end := c.span.End
			if end > cur {
				end = cur // overlapping child: only the part before the frontier counts
			}
			if end <= c.span.Start || c.span.Start < n.span.Start {
				continue // fully past the frontier, or not inside the parent
			}
			self += cur - end
			total += (cur - end) + sweep(c, r, end)
			cur = c.span.Start
			if cur <= n.span.Start {
				cur = n.span.Start
				break
			}
		}
		self += cur - n.span.Start
		total += cur - n.span.Start
		stat(n.span.Name).Critical += self
		rung(r).Critical += self
		return total
	}
	for _, n := range roots {
		an.Critical += sweep(n, "-", n.span.End)
	}

	for _, s := range names {
		an.ByName = append(an.ByName, *s)
	}
	sort.Slice(an.ByName, func(i, j int) bool { return an.ByName[i].Name < an.ByName[j].Name })
	for _, s := range rungs {
		an.ByRung = append(an.ByRung, *s)
	}
	sort.Slice(an.ByRung, func(i, j int) bool { return an.ByRung[i].Rung < an.ByRung[j].Rung })
	return an
}

// selfTime is the span's duration minus the union of its children's
// intervals clipped to the span.
func selfTime(n *node) int64 {
	if len(n.children) == 0 {
		return n.span.Dur()
	}
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		s, e := c.span.Start, c.span.End
		if s < n.span.Start {
			s = n.span.Start
		}
		if e > n.span.End {
			e = n.span.End
		}
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered int64
	var curS, curE int64
	first := true
	for _, v := range ivs {
		if first {
			curS, curE, first = v.s, v.e, false
			continue
		}
		if v.s <= curE {
			if v.e > curE {
				curE = v.e
			}
			continue
		}
		covered += curE - curS
		curS, curE = v.s, v.e
	}
	if !first {
		covered += curE - curS
	}
	return n.span.Dur() - covered
}

// AppendJSON appends the analysis as one deterministic JSON object
// (fixed field order, stats in sorted order).
func (a Analysis) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"spans":`...)
	dst = strconv.AppendInt(dst, int64(a.Spans), 10)
	dst = append(dst, `,"roots":`...)
	dst = strconv.AppendInt(dst, int64(a.Roots), 10)
	dst = append(dst, `,"links":`...)
	dst = strconv.AppendInt(dst, int64(a.Links), 10)
	dst = append(dst, `,"orphans":`...)
	dst = strconv.AppendInt(dst, int64(a.Orphans), 10)
	dst = append(dst, `,"wall":`...)
	dst = strconv.AppendInt(dst, a.Wall, 10)
	dst = append(dst, `,"critical":`...)
	dst = strconv.AppendInt(dst, a.Critical, 10)
	dst = append(dst, `,"by_name":[`...)
	for i, s := range a.ByName {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendQuoted(dst, s.Name)
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(s.Count), 10)
		dst = append(dst, `,"total":`...)
		dst = strconv.AppendInt(dst, s.Total, 10)
		dst = append(dst, `,"self":`...)
		dst = strconv.AppendInt(dst, s.Self, 10)
		dst = append(dst, `,"critical":`...)
		dst = strconv.AppendInt(dst, s.Critical, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"by_rung":[`...)
	for i, s := range a.ByRung {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"rung":`...)
		dst = appendQuoted(dst, s.Rung)
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(s.Count), 10)
		dst = append(dst, `,"total":`...)
		dst = strconv.AppendInt(dst, s.Total, 10)
		dst = append(dst, `,"critical":`...)
		dst = strconv.AppendInt(dst, s.Critical, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

func appendQuoted(dst []byte, s string) []byte {
	return obs.AppendJSONString(dst, s)
}

// WriteChromeTrace writes the span stream as Chrome trace-event JSON
// (the chrome://tracing and Perfetto "complete event" format): a
// top-level object with a traceEvents array of "ph":"X" events, one
// per span, timestamps in the stream's logical units. Each root tree
// gets its own tid so nested spans stack; happens-before links and
// attributes ride in args. Output is deterministic for a deterministic
// stream.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	tids := map[SpanID]int{} // root ID -> tid, in first-seen order
	parentOf := make(map[SpanID]SpanID, len(spans))
	for _, sp := range spans {
		parentOf[sp.ID] = sp.Parent
	}
	rootOf := func(id SpanID) SpanID {
		for {
			p, ok := parentOf[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	var buf []byte
	for i, sp := range spans {
		root := rootOf(sp.ID)
		tid, ok := tids[root]
		if !ok {
			tid = len(tids) + 1
			tids[root] = tid
		}
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n"...)
		buf = append(buf, `{"name":`...)
		buf = appendQuoted(buf, sp.Name)
		buf = append(buf, `,"cat":"span","ph":"X","ts":`...)
		buf = strconv.AppendInt(buf, sp.Start, 10)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, sp.Dur(), 10)
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, `,"args":{"id":"`...)
		buf = append(buf, sp.ID.String()...)
		buf = append(buf, '"')
		if sp.Parent != 0 {
			buf = append(buf, `,"parent":"`...)
			buf = append(buf, sp.Parent.String()...)
			buf = append(buf, '"')
		}
		if len(sp.Links) > 0 {
			buf = append(buf, `,"links":"`...)
			for j, l := range sp.Links {
				if j > 0 {
					buf = append(buf, ' ')
				}
				buf = append(buf, l.String()...)
			}
			buf = append(buf, '"')
		}
		for _, kv := range sp.Attrs {
			buf = append(buf, ',')
			buf = appendQuoted(buf, kv.K)
			buf = append(buf, ':')
			buf = appendQuoted(buf, kv.V)
		}
		buf = append(buf, `}}`...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// WriteTable renders the analysis as the fixed-width text report
// cmd/relaxtrace prints.
func (a Analysis) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "spans=%d roots=%d links=%d orphans=%d wall=%d critical=%d\n",
		a.Spans, a.Roots, a.Links, a.Orphans, a.Wall, a.Critical); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\n%-28s %8s %10s %10s %10s\n", "step", "count", "total", "self", "critical"); err != nil {
		return err
	}
	for _, s := range a.ByName {
		if _, err := fmt.Fprintf(w, "%-28s %8d %10d %10d %10d\n", s.Name, s.Count, s.Total, s.Self, s.Critical); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n%-28s %8s %10s %10s\n", "rung", "count", "total", "critical"); err != nil {
		return err
	}
	for _, s := range a.ByRung {
		if _, err := fmt.Fprintf(w, "%-28s %8d %10d %10d\n", s.Rung, s.Count, s.Total, s.Critical); err != nil {
			return err
		}
	}
	return nil
}
