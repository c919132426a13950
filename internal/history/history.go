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
	"errors"
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
//
//lint:ignore unreached equality oracle: cluster's, quorum's and txn's tests compare histories with it
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

// Count returns the number of operations with the given name.
//
//lint:ignore unreached observer: relaxbench's and integration's tests count operations by name with it
func (h History) Count(name string) int {
	n := 0
	for _, op := range h {
		if op.Name == name {
			n++
		}
	}
	return n
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

// ParseOp parses one "Name(args)/Term(res)" token. It is the decoder
// under every wire, WAL and snapshot entry, so it reads s in one pass,
// builds nothing it throws away and keeps no reference to s: Name and
// Term are the library's own constants when they name one (else a
// copy), so a caller may parse out of a temporary buffer, and Args and
// Res share one exactly sized backing array, Args cap-limited so
// appending to it never overwrites Res. An empty list is nil. Name is
// everything before the first '(' and may not contain '/'; Term is
// everything between that call's ")/" and the next '('. An integer is
// what strconv.Atoi accepts once surrounding whitespace is trimmed
// (strings.TrimSpace).
func ParseOp(s string) (Op, error) {
	var buf [4]int
	vals := buf[:0]
	i := 0
	for i < len(s) && s[i] != '(' && s[i] != '/' {
		i++
	}
	if i == len(s) || s[i] != '(' {
		return Op{}, malformed(s)
	}
	name := ownName(s[:i])
	i, vals, err := parseInts(s, i+1, vals)
	if err != nil {
		return Op{}, err
	}
	if i == len(s) || s[i] != '/' {
		return Op{}, malformed(s)
	}
	nargs := len(vals)
	open := i + 1
	for open < len(s) && s[open] != '(' {
		open++
	}
	if open == len(s) {
		return Op{}, malformed(s)
	}
	term := Term(ownName(s[i+1 : open]))
	if i, vals, err = parseInts(s, open+1, vals); err != nil {
		return Op{}, err
	}
	if i != len(s) {
		return Op{}, malformed(s)
	}
	op := Op{Name: name, Term: term}
	if len(vals) > 0 {
		all := make([]int, len(vals))
		copy(all, vals)
		if nargs > 0 {
			op.Args = all[:nargs:nargs]
		}
		if len(all) > nargs {
			op.Res = all[nargs:]
		}
	}
	return op, nil
}

// ownName returns name as a string sharing no memory with the text it
// was sliced from: the library's constant for the names its objects
// use, else a copy.
func ownName(name string) string {
	switch name {
	case NameEnq:
		return NameEnq
	case NameDeq:
		return NameDeq
	case string(Ok):
		return string(Ok)
	case NameCredit:
		return NameCredit
	case NameDebit:
		return NameDebit
	case string(Over):
		return string(Over)
	}
	return strings.Clone(name)
}

// malformed reports an unparsable operation. Its message is built
// without fmt so that s does not escape: ParseOp's callers can then
// hand it a stack-allocated conversion of their bytes.
func malformed(s string) error {
	return errors.New("malformed operation " + strconv.Quote(s))
}

// fastDigits is the most digits parseInt reads without strconv: any
// such value fits a 32-bit int.
const fastDigits = 9

// parseInts reads the comma-separated integer list of s starting at i,
// just past its '(', appends the values to vals, and returns the index
// just past the list's ')'.
func parseInts(s string, i int, vals []int) (int, []int, error) {
	if i < len(s) && s[i] == ')' {
		return i + 1, vals, nil
	}
	for {
		start := i
		for i < len(s) && s[i] != ',' && s[i] != ')' {
			i++
		}
		if i == len(s) {
			return 0, nil, malformed(s)
		}
		v, err := parseInt(s[start:i])
		if err != nil {
			return 0, nil, errors.New("bad integer " + strconv.Quote(s[start:i]) + " in " + strconv.Quote(s))
		}
		vals = append(vals, v)
		if s[i] == ')' {
			return i + 1, vals, nil
		}
		i++
	}
}

// parseInt is strconv.Atoi(strings.TrimSpace(f)), read inline for the
// canonical form — an optional sign and at most fastDigits digits.
func parseInt(f string) (int, error) {
	digits := f
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > fastDigits {
		return strconv.Atoi(strings.TrimSpace(f))
	}
	v := 0
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return strconv.Atoi(strings.TrimSpace(f))
		}
		v = v*10 + int(d)
	}
	if f[0] == '-' {
		v = -v
	}
	return v, nil
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
