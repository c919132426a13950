# relaxlattice — reproduction of Herlihy & Wing, PODC 1987.
GO ?= go

.PHONY: all build test race fuzz bench bench-e2e longhaul vet fmt experiments verify examples clean

all: build vet test

build:
	$(GO) build ./...

# Tier-1 includes go vet: it is cheap, and the err-drop pass (run by
# internal/lint's tests, see DESIGN.md §8) assumes a vet-clean tree
# (misuses vet already catches are out of its scope).
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/value/ ./internal/quorum/ ./internal/automaton/ ./internal/lattice/ ./internal/specs/ ./internal/experiments/ ./internal/txn/ ./internal/cluster/ ./internal/sim/ ./internal/resilience/ ./internal/relaxcheck/ ./internal/integration/ ./internal/relaxd/ ./examples/relaxedqueues/ ./internal/obs/... ./cmd/... ./bench/relaxbench/

# Short native-fuzzing smoke: each target gets a bounded budget on top
# of its checked-in seed corpus (testdata/fuzz). CI runs this; longer
# local sessions just raise -fuzztime.
fuzz:
	$(GO) test -fuzz=FuzzParseOp -fuzztime=20s ./internal/history/
	$(GO) test -fuzz=FuzzEngineMatchesNaive -fuzztime=20s ./internal/automaton/
	$(GO) test -fuzz=FuzzTaxiLatticeMonotonicity -fuzztime=20s ./internal/lattice/
	$(GO) test -fuzz=FuzzStepCheckerMatchesOffline -fuzztime=20s ./internal/relaxcheck/
	$(GO) test -fuzz=FuzzCertifyMatchesReplay -fuzztime=20s ./internal/relaxcheck/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/relaxd/
	$(GO) test -fuzz=FuzzStateStream -fuzztime=20s ./internal/relaxd/
	$(GO) test -fuzz=FuzzWALOpen -fuzztime=20s ./internal/relaxd/
	$(GO) test -fuzz=FuzzSegmentedWALOpen -fuzztime=20s ./internal/relaxd/

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares: whole quorum
# operations over loopback TCP and real fsyncs, four workloads, the
# per-layer budget next to the headline numbers (bench/README.md).
bench-e2e:
	$(GO) run ./bench/relaxbench

# The kill-9 soak battery CI's relaxd-longhaul job runs: a real
# networked service under continuous hard kills and wipe-and-rejoins,
# raced, inside a wall-clock budget. The budget is generous because
# every wipe-and-rejoin ships and certifies a whole site log and every
# restarted site is re-read from its start once, both under the race
# detector. Artifacts (exported history) land in .longhaul/ for upload
# on failure.
longhaul:
	mkdir -p .longhaul
	timeout 1200 $(GO) run -race ./cmd/relaxsoak -mode longhaul -sites 5 -clients 16 \
		-ops 5000 -kill-every 80ms -wipe-every 3 -seed 42 -history .longhaul/history.txt
	$(GO) run ./cmd/relaxsoak -mode audit -lattice taxi -history .longhaul/history.txt

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Regenerate every paper artifact (the body of EXPERIMENTS.md). The
# output is byte-identical at any -workers count; a FAILS verdict
# fails the target.
experiments:
	$(GO) run ./cmd/relaxctl run all

# Bounded model checking of Theorem 4 and the companion claims.
verify:
	$(GO) run ./cmd/relaxctl verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/taxidispatch
	$(GO) run ./examples/bankatm
	$(GO) run ./examples/printspool
	$(GO) run ./examples/gridstore
	$(GO) run ./examples/relaxedqueues

clean:
	$(GO) clean ./...
