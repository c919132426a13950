package relaxcheck

import (
	"testing"

	"relaxlattice/internal/history"
)

// malformedOps are executions no queue automaton accepts: the wrong
// arity, a termination other than Ok, and an unknown operation.
var malformedOps = []history.Op{
	history.MakeOp(history.NameEnq, []int{1, 2}, history.Ok, nil),
	history.MakeOp(history.NameEnq, []int{1}, history.Ok, []int{1}),
	history.MakeOp(history.NameEnq, []int{1}, history.Over, nil),
	history.MakeOp(history.NameDeq, nil, history.Ok, nil),
	history.MakeOp(history.NameDeq, []int{1}, history.Ok, []int{1}),
	history.MakeOp(history.NameDeq, nil, history.Over, []int{1}),
	history.MakeOp("Peek", nil, history.Ok, []int{1}),
}

// decodeHistory maps fuzzer bytes onto a bounded queue history: each
// byte below 0xF0 selects one operation of the alphabet, and each byte
// from 0xF0 up one of malformedOps. The length cap keeps the offline
// WeakestAccepting replays (exponential in principle) cheap.
func decodeHistory(data []byte) history.History {
	alphabet := history.QueueAlphabet(3)
	if len(data) > maxDiffLen {
		data = data[:maxDiffLen]
	}
	h := make(history.History, 0, len(data))
	for _, b := range data {
		if b >= 0xF0 {
			h = append(h, malformedOps[int(b-0xF0)%len(malformedOps)])
			continue
		}
		h = append(h, alphabet[int(b)%len(alphabet)])
	}
	return h
}

// FuzzStepCheckerMatchesOffline is the fuzz face of the differential
// battery: on fuzzer-chosen histories — legal or not — the online
// checker's per-prefix verdict must equal the offline WeakestAccepting
// replay for every lattice under test.
func FuzzStepCheckerMatchesOffline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3})
	f.Add([]byte{0, 1, 4, 3})
	f.Add([]byte{1, 1, 5, 5})
	f.Add([]byte{4, 0, 2, 3, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHistory(data)
		for _, lat := range diffLattices() {
			assertOnlineMatchesOffline(t, lat, h)
		}
	})
}
