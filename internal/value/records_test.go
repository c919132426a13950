package value

import (
	"strings"
	"testing"
)

func TestMPQKeyDistinguishesComponents(t *testing.T) {
	a := MPQ{Present: BagOf(1), Absent: BagOf(2)}
	b := MPQ{Present: BagOf(2), Absent: BagOf(1)}
	if a.Key() == b.Key() {
		t.Errorf("MPQ key collision: %q", a.Key())
	}
	if !strings.Contains(a.String(), "present") {
		t.Errorf("String = %q", a.String())
	}
	if EmptyMPQ().Key() != (MPQ{}).Key() {
		t.Errorf("EmptyMPQ differs from zero value")
	}
}

func TestStutQKey(t *testing.T) {
	a := StutQ{Items: SeqOf(1), Count: 0}
	b := StutQ{Items: SeqOf(1), Count: 1}
	if a.Key() == b.Key() {
		t.Errorf("count must distinguish keys")
	}
	if EmptyStutQ().Count != 0 || !EmptyStutQ().Items.IsEmp() {
		t.Errorf("EmptyStutQ wrong")
	}
}

func TestSSQOperations(t *testing.T) {
	s := EmptySSQ().Ins(1).Ins(2).Ins(3)
	if s.Items.Size() != 3 || len(s.Counts) != 3 {
		t.Fatalf("SSQ after Ins: %v", s)
	}
	st := s.Stutter(1)
	if st.Counts[1] != 1 || s.Counts[1] != 0 {
		t.Errorf("Stutter wrong or mutated receiver: %v / %v", st, s)
	}
	rm := st.Remove(1)
	if rm.Items.Size() != 2 || len(rm.Counts) != 2 {
		t.Errorf("Remove wrong: %v", rm)
	}
	if !rm.Items.Equal(SeqOf(1, 3)) {
		t.Errorf("Remove items: %v", rm.Items)
	}
	if rm.Counts[0] != 0 || rm.Counts[1] != 0 {
		t.Errorf("Remove counts: %v", rm.Counts)
	}
	if s.Key() == st.Key() {
		t.Errorf("counts must distinguish SSQ keys")
	}
}

func TestAccount(t *testing.T) {
	a := NewAccount(10)
	if a.Balance != 10 {
		t.Errorf("Balance = %d", a.Balance)
	}
	if a.Key() == NewAccount(11).Key() {
		t.Errorf("key collision")
	}
	if !strings.Contains(a.String(), "10") {
		t.Errorf("String = %q", a.String())
	}
}

// All Value implementations must have Key() consistent with structural
// equality; spot-check the interface is satisfied.
func TestValueInterfaceCompliance(t *testing.T) {
	values := []Value{
		EmptyBag(), EmptySeq(), EmptyMPQ(), EmptyStutQ(),
		EmptySSQ(), NewAccount(0),
	}
	seen := map[string]string{}
	for _, v := range values {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision between %T and %s", v, prev)
		}
		seen[v.Key()] = v.String()
	}
}

func TestElemLess(t *testing.T) {
	if !Elem(1).Less(2) || Elem(2).Less(1) || Elem(2).Less(2) {
		t.Errorf("Less wrong")
	}
}
