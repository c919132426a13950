// Package history models computations as finite sequences of operation
// executions, following Section 2 of Herlihy & Wing, "Specifying Graceful
// Degradation in Distributed Systems" (PODC 1987).
//
// An operation execution is written op(args*)/term(res*): the operation
// name and argument values form the invocation, and the termination
// condition and result values form the response. "Ok" denotes normal
// termination. A history is a finite sequence of such executions.
package history

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is a termination condition name.
type Term string

// Standard termination conditions used throughout the library.
const (
	// Ok is normal termination.
	Ok Term = "Ok"
	// Over is the bank-account overdraft exception (Section 3.4).
	Over Term = "Over"
)

// Op is one operation execution: an invocation paired with a response.
// The zero value is not meaningful; construct with MakeOp or the typed
// helpers in the packages that define each data type.
type Op struct {
	// Name is the operation name, e.g. "Enq".
	Name string
	// Args are the invocation's argument values.
	Args []int
	// Term is the termination condition name, e.g. Ok.
	Term Term
	// Res are the response's result values.
	Res []int
}

// MakeOp builds an operation execution. The args and res slices are
// copied so the Op does not alias caller memory.
func MakeOp(name string, args []int, term Term, res []int) Op {
	return Op{
		Name: name,
		Args: append([]int(nil), args...),
		Term: term,
		Res:  append([]int(nil), res...),
	}
}

// Invocation is an operation name plus argument values, without a
// response. Quorum intersection relations (Section 3.1) relate
// invocations to operations.
type Invocation struct {
	Name string
	Args []int
}

// Inv returns op's invocation.
func (op Op) Inv() Invocation {
	return Invocation{Name: op.Name, Args: append([]int(nil), op.Args...)}
}

// WithResponse completes an invocation with the given response.
func (inv Invocation) WithResponse(term Term, res []int) Op {
	return MakeOp(inv.Name, inv.Args, term, res)
}

// String renders the invocation as "Name(a1,a2)".
func (inv Invocation) String() string {
	return inv.Name + "(" + joinInts(inv.Args) + ")"
}

// Equal reports whether two operation executions are identical.
func (op Op) Equal(other Op) bool {
	return op.Name == other.Name &&
		op.Term == other.Term &&
		intsEqual(op.Args, other.Args) &&
		intsEqual(op.Res, other.Res)
}

// String renders the execution as "Name(args)/Term(res)", the paper's
// notation, e.g. "Enq(3)/Ok()".
func (op Op) String() string {
	return op.Name + "(" + joinInts(op.Args) + ")/" + string(op.Term) + "(" + joinInts(op.Res) + ")"
}

// AppendText appends exactly String()'s bytes to dst and returns the
// extended slice — the allocation-free form for codecs that serialize
// many executions into one buffer.
func (op Op) AppendText(dst []byte) []byte {
	dst = append(dst, op.Name...)
	dst = appendInts(append(dst, '('), op.Args)
	dst = append(dst, ")/"...)
	dst = append(dst, op.Term...)
	dst = appendInts(append(dst, '('), op.Res)
	return append(dst, ')')
}

func appendInts(dst []byte, xs []int) []byte {
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

// History is a finite sequence of operation executions. The methods
// treat History values as immutable: Append copies.
type History []Op

// Empty is the empty history Λ.
var Empty = History{}

// Append returns H·p without mutating h. The returned history never
// shares backing storage with h, so callers may retain both.
func (h History) Append(ops ...Op) History {
	out := make(History, 0, len(h)+len(ops))
	out = append(out, h...)
	out = append(out, ops...)
	return out
}

// Equal reports whether two histories are the same sequence.
func (h History) Equal(other History) bool {
	if len(h) != len(other) {
		return false
	}
	for i := range h {
		if !h[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// Key is a canonical encoding of the history, usable as a map key.
func (h History) Key() string {
	var b strings.Builder
	for i, op := range h {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// String renders the history in the paper's notation, ops separated by
// " · " (concatenation).
func (h History) String() string {
	if len(h) == 0 {
		return "Λ"
	}
	parts := make([]string, len(h))
	for i, op := range h {
		parts[i] = op.String()
	}
	return strings.Join(parts, " · ")
}

// Prefix returns the first n operations of h (n clamped to len(h)).
func (h History) Prefix(n int) History {
	if n > len(h) {
		n = len(h)
	}
	if n < 0 {
		n = 0
	}
	return h[:n:n]
}

// Last returns the final operation. It panics on the empty history.
func (h History) Last() Op {
	if len(h) == 0 {
		panic("history: Last of empty history")
	}
	return h[len(h)-1]
}

// Filter returns the subhistory of operations satisfying keep, in order.
func (h History) Filter(keep func(Op) bool) History {
	var out History
	for _, op := range h {
		if keep(op) {
			out = append(out, op)
		}
	}
	return out
}

// Select returns the subhistory at the given (sorted, unique) indexes.
func (h History) Select(indexes []int) History {
	out := make(History, 0, len(indexes))
	for _, i := range indexes {
		out = append(out, h[i])
	}
	return out
}

// Count returns the number of operations with the given name.
func (h History) Count(name string) int {
	n := 0
	for _, op := range h {
		if op.Name == name {
			n++
		}
	}
	return n
}

// IsSubhistoryOf reports whether h is a (not necessarily contiguous)
// subsequence of g.
func (h History) IsSubhistoryOf(g History) bool {
	j := 0
	for _, op := range g {
		if j < len(h) && h[j].Equal(op) {
			j++
		}
	}
	return j == len(h)
}

// Parse parses the output of History.String (or Key), accepting either
// " · " or single-space separators. It is the inverse of String for
// histories produced by this package.
func Parse(s string) (History, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "Λ" {
		return Empty, nil
	}
	fields := strings.Split(strings.ReplaceAll(s, " · ", " "), " ")
	h := make(History, 0, len(fields))
	for _, f := range fields {
		op, err := ParseOp(f)
		if err != nil {
			return nil, fmt.Errorf("history: parse %q: %w", f, err)
		}
		h = append(h, op)
	}
	return h, nil
}

// ParseOp parses one "Name(args)/Term(res)" token.
func ParseOp(s string) (Op, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Op{}, fmt.Errorf("missing '/' in %q", s)
	}
	name, args, err := parseCall(s[:slash])
	if err != nil {
		return Op{}, err
	}
	term, res, err := parseCall(s[slash+1:])
	if err != nil {
		return Op{}, err
	}
	return Op{Name: name, Args: args, Term: Term(term), Res: res}, nil
}

func parseCall(s string) (string, []int, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed call %q", s)
	}
	name := s[:open]
	inner := s[open+1 : len(s)-1]
	if inner == "" {
		return name, nil, nil
	}
	parts := strings.Split(inner, ",")
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return "", nil, fmt.Errorf("bad integer %q in %q", p, s)
		}
		vals[i] = v
	}
	return name, vals, nil
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
