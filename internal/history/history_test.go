package history

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{Enq(3), "Enq(3)/Ok()"},
		{DeqOk(7), "Deq()/Ok(7)"},
		{Credit(10), "Credit(10)/Ok()"},
		{DebitOk(4), "Debit(4)/Ok()"},
		{DebitOver(9), "Debit(9)/Over()"},
		{MakeOp("Op", []int{1, 2}, Ok, []int{3, 4}), "Op(1,2)/Ok(3,4)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	ops := []Op{
		Enq(1), DeqOk(2), Credit(5), DebitOver(3),
		MakeOp("X", []int{-1, 0, 42}, "Weird", []int{7}),
	}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if !got.Equal(op) {
			t.Errorf("round trip: got %v, want %v", got, op)
		}
	}
}

func TestParseOpErrors(t *testing.T) {
	for _, s := range []string{"", "Enq(3)", "Enq3)/Ok()", "Enq(3)/Ok(", "Enq(x)/Ok()"} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q): expected error", s)
		}
	}
}

func TestHistoryStringAndParse(t *testing.T) {
	h := History{Enq(1), Enq(2), DeqOk(1)}
	want := "Enq(1)/Ok() · Enq(2)/Ok() · Deq()/Ok(1)"
	if got := h.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	back, err := Parse(h.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !back.Equal(h) {
		t.Errorf("Parse round trip: got %v", back)
	}
	if Empty.String() != "Λ" {
		t.Errorf("empty history renders as %q", Empty.String())
	}
	emptyBack, err := Parse("Λ")
	if err != nil || len(emptyBack) != 0 {
		t.Errorf("Parse(Λ) = %v, %v", emptyBack, err)
	}
}

func TestAppendDoesNotAlias(t *testing.T) {
	h := History{Enq(1)}
	a := h.Append(Enq(2))
	b := h.Append(Enq(3))
	if !a.Equal(History{Enq(1), Enq(2)}) {
		t.Errorf("a = %v", a)
	}
	if !b.Equal(History{Enq(1), Enq(3)}) {
		t.Errorf("b corrupted by sibling append: %v", b)
	}
}

func TestCount(t *testing.T) {
	h := History{Enq(1), DeqOk(1), Enq(2), DeqOk(2)}
	if h.Count(NameEnq) != 2 || h.Count(NameDeq) != 2 || h.Count("Nope") != 0 {
		t.Errorf("Count wrong: %d %d", h.Count(NameEnq), h.Count(NameDeq))
	}
}

func TestInvocation(t *testing.T) {
	op := DeqOk(5)
	inv := op.Inv()
	if inv.String() != "Deq()" {
		t.Errorf("Inv = %q", inv.String())
	}
	if got := inv.WithResponse(Ok, []int{5}); !got.Equal(op) {
		t.Errorf("WithResponse = %v", got)
	}
	if EnqInv(2).String() != "Enq(2)" {
		t.Errorf("EnqInv = %q", EnqInv(2).String())
	}
}

func TestQueueAlphabet(t *testing.T) {
	a := QueueAlphabet(3)
	if len(a) != 6 {
		t.Fatalf("len = %d, want 6", len(a))
	}
	seen := map[string]bool{}
	for _, op := range a {
		seen[op.String()] = true
	}
	for _, want := range []string{"Enq(1)/Ok()", "Enq(3)/Ok()", "Deq()/Ok(2)"} {
		if !seen[want] {
			t.Errorf("alphabet missing %s", want)
		}
	}
}

func TestAccountAlphabet(t *testing.T) {
	a := AccountAlphabet(2)
	if len(a) != 6 {
		t.Fatalf("len = %d, want 6", len(a))
	}
	if a[0].Name != NameCredit {
		t.Errorf("first op %v", a[0])
	}
}

// Property: String/ParseOp round-trips for arbitrary ops with small
// non-negative values (negative values round-trip too; tested above).
func TestOpRoundTripQuick(t *testing.T) {
	f := func(nameSeed uint8, args, res []uint8) bool {
		names := []string{"Enq", "Deq", "Credit", "Debit", "Read", "Write"}
		op := Op{Name: names[int(nameSeed)%len(names)], Term: Ok}
		for _, a := range args {
			op.Args = append(op.Args, int(a))
		}
		for _, r := range res {
			op.Res = append(op.Res, int(r))
		}
		back, err := ParseOp(op.String())
		return err == nil && back.Equal(op)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective on distinct histories drawn from a small
// alphabet (distinct sequences have distinct keys).
func TestHistoryKeyInjectiveQuick(t *testing.T) {
	alphabet := QueueAlphabet(3)
	decode := func(idx []uint8) History {
		var h History
		for _, i := range idx {
			h = append(h, alphabet[int(i)%len(alphabet)])
		}
		return h
	}
	f := func(a, b []uint8) bool {
		ha, hb := decode(a), decode(b)
		if ha.Equal(hb) {
			return ha.Key() == hb.Key()
		}
		return ha.Key() != hb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
