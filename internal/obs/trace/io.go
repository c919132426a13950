package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"relaxlattice/internal/obs"
)

// The JSONL span schema. Field order is fixed so streams are
// byte-stable:
//
//	{"id":H,"parent":H,"name":S,"start":N,"end":N,"links":[H,...],"k1":"v1",...}
//
// parent is omitted for roots and links when empty. Every remaining
// field is an ordered string attribute. The reserved keys cannot be
// used as attribute names.
var reservedKeys = map[string]bool{
	"id": true, "parent": true, "name": true,
	"start": true, "end": true, "links": true,
}

// appendSpanJSON appends one span as a JSON object with fixed field
// order. Attribute keys are emitted in recorded order.
func appendSpanJSON(dst []byte, sp Span) []byte {
	dst = append(dst, `{"id":"`...)
	dst = append(dst, sp.ID.String()...)
	if sp.Parent != 0 {
		dst = append(dst, `","parent":"`...)
		dst = append(dst, sp.Parent.String()...)
	}
	dst = append(dst, `","name":`...)
	dst = obs.AppendJSONString(dst, sp.Name)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, sp.Start, 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, sp.End, 10)
	if len(sp.Links) > 0 {
		dst = append(dst, `,"links":[`...)
		for i, l := range sp.Links {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = append(dst, l.String()...)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	for _, kv := range sp.Attrs {
		dst = append(dst, ',')
		dst = obs.AppendJSONString(dst, kv.K)
		dst = append(dst, ':')
		dst = obs.AppendJSONString(dst, kv.V)
	}
	return append(dst, '}')
}

// ParseSpan decodes one JSONL span line, preserving attribute order
// (encoding/json's map decoding would lose it, so the object is walked
// token by token).
func ParseSpan(line []byte) (Span, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	var sp Span
	tok, err := dec.Token()
	if err != nil {
		return sp, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return sp, fmt.Errorf("trace: span line is not a JSON object")
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return sp, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return sp, fmt.Errorf("trace: non-string key in span object")
		}
		switch key {
		case "id", "parent":
			var s string
			if err := dec.Decode(&s); err != nil {
				return sp, fmt.Errorf("trace: field %s: %w", key, err)
			}
			id, err := ParseSpanID(s)
			if err != nil {
				return sp, fmt.Errorf("trace: field %s: %w", key, err)
			}
			if key == "id" {
				sp.ID = id
			} else {
				sp.Parent = id
			}
		case "name":
			if err := dec.Decode(&sp.Name); err != nil {
				return sp, fmt.Errorf("trace: field name: %w", err)
			}
		case "start", "end":
			var n int64
			if err := dec.Decode(&n); err != nil {
				return sp, fmt.Errorf("trace: field %s: %w", key, err)
			}
			if key == "start" {
				sp.Start = n
			} else {
				sp.End = n
			}
		case "links":
			var raw []string
			if err := dec.Decode(&raw); err != nil {
				return sp, fmt.Errorf("trace: field links: %w", err)
			}
			sp.Links = make([]SpanID, len(raw))
			for i, s := range raw {
				id, err := ParseSpanID(s)
				if err != nil {
					return sp, fmt.Errorf("trace: link %d: %w", i, err)
				}
				sp.Links[i] = id
			}
		default:
			var v string
			if err := dec.Decode(&v); err != nil {
				return sp, fmt.Errorf("trace: attribute %s: %w", key, err)
			}
			sp.Attrs = append(sp.Attrs, obs.KV{K: key, V: v})
		}
	}
	if sp.ID == 0 {
		return sp, fmt.Errorf("trace: span line has no id")
	}
	return sp, nil
}

// ReadJSONL reads a whole span stream (one JSON object per line; blank
// lines are skipped).
func ReadJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		sp, err := ParseSpan(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
