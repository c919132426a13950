package history

import "testing"

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

// FuzzParseOp checks that ParseOp never panics and that anything it
// accepts round-trips through String.
func FuzzParseOp(f *testing.F) {
	for _, seed := range parseOpSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
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
