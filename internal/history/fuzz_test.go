package history

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var parseOpSeeds = []string{
	"Enq(1)/Ok()", "Deq()/Ok(2)", "Debit(3)/Over()", "X(1,2)/T(3,4)",
	"", "(", "a/b", "Enq(1)/", "Enq(x)/Ok()", "Enq(1)Ok()",
}

// TestOpAppendTextIsString pins the codec's allocation-free rendering
// to String byte for byte — the WAL, snapshot and wire formats are
// whatever String prints — over the ParseOp fuzz corpus and the shapes
// it lacks: negative and multi-digit values, and a non-empty prefix.
func TestOpAppendTextIsString(t *testing.T) {
	ops := []Op{{}, Enq(-7), DeqOk(1234567890), MakeOp("X", []int{-1, 0, 22}, "T", []int{3, -44})}
	for _, seed := range parseOpSeeds {
		if op, err := ParseOp(seed); err == nil {
			ops = append(ops, op)
		}
	}
	if len(ops) < 8 {
		t.Fatalf("only %d operations: the corpus no longer parses", len(ops))
	}
	for _, op := range ops {
		if got := string(op.AppendText(nil)); got != op.String() {
			t.Errorf("AppendText(nil) = %q, String() = %q", got, op.String())
		}
		if got := string(op.AppendText([]byte("k:"))); got != "k:"+op.String() {
			t.Errorf("AppendText onto a prefix = %q, want %q", got, "k:"+op.String())
		}
	}
}

// oracleParseOp is ParseOp's previous, split-based implementation: the
// oracle FuzzParseOp holds the allocation-lean parser to.
func oracleParseOp(s string) (Op, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Op{}, fmt.Errorf("missing '/' in %q", s)
	}
	name, args, err := oracleParseCall(s[:slash])
	if err != nil {
		return Op{}, err
	}
	term, res, err := oracleParseCall(s[slash+1:])
	if err != nil {
		return Op{}, err
	}
	return Op{Name: name, Args: args, Term: Term(term), Res: res}, nil
}

func oracleParseCall(s string) (string, []int, error) {
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

// TestParseOpMatchesOracle runs the fuzz target's differential over
// hand-picked edges of strconv.Atoi and strings.TrimSpace: signs,
// int64 bounds and overflow, Unicode whitespace, empty fields, and
// separators inside names.
func TestParseOpMatchesOracle(t *testing.T) {
	cases := append([]string{
		"Enq(+7)/Ok()", "Enq(-0)/Ok()", "Enq(- 1)/Ok()", "Enq(+)/Ok()", "Enq(-)/Ok()",
		"X(9223372036854775807)/Ok(-9223372036854775808)",
		"X(9223372036854775808)/Ok()", "X()/Ok(-9223372036854775809)",
		"X(00000000000000000000000000001)/Ok()", "X(1_000)/Ok()", "X(0x10)/Ok()",
		"X( 1 ,\t2\n)/T(\u00a03\u2003)", "X( 1 )/Ok(\u0085-2)", "X(1\u2003)/Ok(\u3000)", "X(1,)/Ok()", "X(,1)/Ok()", "X(1,,2)/Ok()", "X( )/Ok()",
		"a)b(1)/c/d(2)", "X(1)/Ok())", "X((1))/Ok()", "()/()", "X(1)/(", "/", "X(1)/Ok(2,3,4)",
	}, parseOpSeeds...)
	for _, s := range cases {
		assertParseOpMatchesOracle(t, s)
	}
}

func assertParseOpMatchesOracle(t *testing.T, s string) {
	t.Helper()
	got, gerr := ParseOp(s)
	want, werr := oracleParseOp(s)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("ParseOp(%q): error %v, oracle error %v", s, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseOp(%q) = %#v, oracle %#v", s, got, want)
	}
	if cap(got.Args) != len(got.Args) {
		t.Fatalf("ParseOp(%q): Args has cap %d > len %d, so appending to it overwrites Res", s, cap(got.Args), len(got.Args))
	}
}

// FuzzParseOp checks that ParseOp never panics, accepts exactly what
// the split-based oracle accepts and builds the same Op, and that
// anything it accepts round-trips through String.
func FuzzParseOp(f *testing.F) {
	for _, seed := range parseOpSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		assertParseOpMatchesOracle(t, s)
		op, err := ParseOp(s)
		if err != nil {
			return
		}
		if got := string(op.AppendText(nil)); got != op.String() {
			t.Fatalf("AppendText %q, String %q", got, op.String())
		}
		back, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", op.String(), err)
		}
		if !back.Equal(op) {
			t.Fatalf("round trip changed op: %v vs %v", op, back)
		}
	})
}

// FuzzParseHistory likewise for whole histories.
func FuzzParseHistory(f *testing.F) {
	f.Add("Enq(1)/Ok() Deq()/Ok(1)")
	f.Add("Λ")
	f.Add("Enq(1)/Ok() · Enq(2)/Ok()")
	f.Fuzz(func(t *testing.T, s string) {
		h, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(h.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", h.String(), err)
		}
		if !back.Equal(h) {
			t.Fatalf("round trip changed history")
		}
	})
}
