package specs

import "relaxlattice/internal/automaton"

// All returns one instance of every specification automaton the paper
// defines (with small indexes for the parameterized families), keyed by
// name. Tooling uses it to enumerate, document, and cross-check the
// catalog.
//
//lint:ignore unreached catalog: automaton's engine-vs-naive differential tests run over every entry
func All() map[string]automaton.Automaton {
	list := []automaton.Automaton{
		BagAutomaton(),
		FIFOQueue(),
		PriorityQueue(),
		MultiPriorityQueue(),
		OutOfOrderQueue(),
		DegeneratePriorityQueue(),
		Semiqueue(1),
		Semiqueue(2),
		Semiqueue(3),
		StutteringQueue(1),
		StutteringQueue(2),
		StutteringQueue(3),
		SSQueue(1, 1),
		SSQueue(2, 2),
		MultiSemiqueue(2),
		BankAccount(),
		SpuriousAccount(),
		OverdraftAccount(),
	}
	out := make(map[string]automaton.Automaton, len(list))
	for _, a := range list {
		out[a.Name()] = a
	}
	return out
}
