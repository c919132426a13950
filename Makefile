# relaxlattice — reproduction of Herlihy & Wing, PODC 1987.
GO ?= go

.PHONY: all build test race fuzz bench bench-e2e bench-json bench-conc bench-trace bench-relaxd longhaul vet fmt lint lint-v2 experiments verify examples clean

all: build vet lint test

build:
	$(GO) build ./...

# Tier-1 includes go vet: it is cheap, and the custom passes assume a
# vet-clean tree (shadowed variables and misuses vet already catches
# are out of relaxlint's scope by design).
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/automaton/ ./internal/experiments/ ./internal/txn/ ./internal/cluster/ ./internal/commit/ ./internal/sim/ ./internal/resilience/ ./internal/relaxcheck/ ./internal/integration/ ./internal/conc/ ./internal/relaxd/ ./cmd/...

# Short native-fuzzing smoke: each target gets a bounded budget on top
# of its checked-in seed corpus (testdata/fuzz). CI runs this; longer
# local sessions just raise -fuzztime.
fuzz:
	$(GO) test -fuzz=FuzzEngineMatchesNaive -fuzztime=20s ./internal/automaton/
	$(GO) test -fuzz=FuzzTaxiLatticeMonotonicity -fuzztime=20s ./internal/lattice/
	$(GO) test -fuzz=FuzzStepCheckerMatchesOffline -fuzztime=20s ./internal/relaxcheck/
	$(GO) test -fuzz=FuzzCheckpointResume -fuzztime=20s ./internal/relaxcheck/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/relaxd/
	$(GO) test -fuzz=FuzzWALOpen -fuzztime=20s ./internal/relaxd/
	$(GO) test -fuzz=FuzzSegmentedWALOpen -fuzztime=20s ./internal/relaxd/

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares: whole quorum
# operations over loopback TCP and real fsyncs, four workloads, the
# per-layer budget next to the headline numbers (bench/README.md).
bench-e2e:
	$(GO) run ./bench/relaxbench

# Machine-readable benchmark snapshot (ns/op + allocs) for PR
# before/after comparisons, with the deterministic obs metrics snapshot
# of a full experiment sweep embedded alongside the timings. The output
# file is BENCH_OUT= (default BENCH_PR3.json); committed BENCH_PR*.json
# snapshots are historical evidence, so overwriting an existing one
# requires FORCE=1.
BENCH_OUT ?= BENCH_PR3.json
bench-json:
	@if [ -e "$(BENCH_OUT)" ] && [ "$(FORCE)" != "1" ]; then \
		case "$(BENCH_OUT)" in BENCH_PR*.json) \
			echo "bench-json: refusing to overwrite committed snapshot $(BENCH_OUT); rerun with FORCE=1"; \
			exit 1;; \
		esac; \
	fi
	$(GO) run ./cmd/relaxctl run -parallel -metrics .bench-metrics.json all >/dev/null
	$(GO) test -bench=. -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson -metrics .bench-metrics.json -o "$(BENCH_OUT)"
	rm -f .bench-metrics.json

# The lock-free-structure throughput sweep (internal/conc): scalability
# curves plus the deep-backlog priority regime, converted to JSON with
# speedups over the strict baselines. The E10 experiment benchmark runs
# alongside so the allocation delta against BENCH_PR3.json lands in the
# same snapshot. Honors the same BENCH_OUT/FORCE discipline as
# bench-json, defaulting to BENCH_PR7.json.
bench-conc: BENCH_OUT = BENCH_PR7.json
bench-conc:
	@if [ -e "$(BENCH_OUT)" ] && [ "$(FORCE)" != "1" ]; then \
		case "$(BENCH_OUT)" in BENCH_PR*.json) \
			echo "bench-conc: refusing to overwrite committed snapshot $(BENCH_OUT); rerun with FORCE=1"; \
			exit 1;; \
		esac; \
	fi
	( $(GO) test -run='^$$' -bench='BenchmarkConc' -benchtime=300ms -timeout=20m ./internal/conc/ \
	  && $(GO) test -run='^$$' -bench='Benchmark_E10' -benchmem . ) \
		| $(GO) run ./cmd/benchjson -prev BENCH_PR3.json -o "$(BENCH_OUT)"

# The tracing/audit snapshot: span-emit, critical-path-analyze, and
# checkpoint/resume benchmarks, plus the per-rung critical-path summary
# of a pinned traced soak (relaxsoak -spans → benchjson -trace),
# diffed against BENCH_PR7.json. Honors the same BENCH_OUT/FORCE
# discipline, defaulting to BENCH_PR8.json.
bench-trace: BENCH_OUT = BENCH_PR8.json
bench-trace:
	@if [ -e "$(BENCH_OUT)" ] && [ "$(FORCE)" != "1" ]; then \
		case "$(BENCH_OUT)" in BENCH_PR*.json) \
			echo "bench-trace: refusing to overwrite committed snapshot $(BENCH_OUT); rerun with FORCE=1"; \
			exit 1;; \
		esac; \
	fi
	$(GO) run ./cmd/relaxsoak -mode cluster -workload uniform -clients 10 -ops 400 -seed 3 -calm -spans .bench-spans.jsonl >/dev/null
	( $(GO) test -run='^$$' -bench='BenchmarkSpanEmit|BenchmarkAnalyze' -benchmem ./internal/obs/trace/ \
	  && $(GO) test -run='^$$' -bench='BenchmarkCheckpointRoundtrip|BenchmarkAuditObserve' -benchmem ./internal/relaxcheck/ ) \
		| $(GO) run ./cmd/benchjson -trace .bench-spans.jsonl -prev BENCH_PR7.json -o "$(BENCH_OUT)"
	rm -f .bench-spans.jsonl

# The relaxd scaling snapshot: single-record commit vs the pipelined
# group-commit path (appends/sec), plus cold recovery over a segmented
# store (recovery-ms), diffed against BENCH_PR8.json. Honors the same
# BENCH_OUT/FORCE discipline, defaulting to BENCH_PR10.json. The
# pipelined appends/sec number is expected to carry ≥2× the
# single-commit one — that delta is the PR's headline evidence.
bench-relaxd: BENCH_OUT = BENCH_PR10.json
bench-relaxd:
	@if [ -e "$(BENCH_OUT)" ] && [ "$(FORCE)" != "1" ]; then \
		case "$(BENCH_OUT)" in BENCH_PR*.json) \
			echo "bench-relaxd: refusing to overwrite committed snapshot $(BENCH_OUT); rerun with FORCE=1"; \
			exit 1;; \
		esac; \
	fi
	$(GO) test -run='^$$' -bench='BenchmarkAppendSingleCommit|BenchmarkAppendPipelined|BenchmarkRecovery' \
		-benchmem -benchtime=1s ./internal/relaxd/ \
		| $(GO) run ./cmd/benchjson -prev BENCH_PR8.json -o "$(BENCH_OUT)"

# The kill-9 soak battery CI's relaxd-longhaul job runs: a real
# networked service under continuous hard kills and wipe-and-rejoins,
# raced, inside a wall-clock budget. The budget is generous because
# step-1 GetLog ships the whole site log, so raced op cost grows with
# history length. Artifacts (exported history) land in .longhaul/ for
# upload on failure.
longhaul:
	mkdir -p .longhaul
	timeout 1200 $(GO) run -race ./cmd/relaxsoak -mode longhaul -sites 5 -clients 16 \
		-ops 5000 -kill-every 80ms -wipe-every 3 -seed 42 -history .longhaul/history.txt
	$(GO) run ./cmd/relaxsoak -mode audit -lattice taxi -history .longhaul/history.txt

vet:
	$(GO) vet ./...

# Custom static analysis: model-layer determinism (syntactic and
# flow-sensitive taint), lock discipline and acquisition ordering,
# error discipline, spec purity, and static quorum-claim certification
# (see internal/lint and DESIGN.md §8, §12).
lint:
	$(GO) run ./cmd/relaxlint ./...

# The full lint suite the CI lint-v2 job runs: JSON findings, the
# speccheck proof artifact, and the fixture-inversion check.
lint-v2:
	$(GO) run ./cmd/relaxlint -json ./... > relaxlint.json
	$(GO) run ./cmd/relaxlint -proof speccheck.json ./...
	@if $(GO) run ./cmd/relaxlint -dir internal/lint/testdata/src ./... >/dev/null; then \
		echo "relaxlint reported no findings on the violation fixtures"; exit 1; \
	else true; fi

fmt:
	gofmt -w .

# Regenerate every paper artifact (the body of EXPERIMENTS.md). The
# parallel runner's output is byte-identical to the serial one.
experiments:
	$(GO) run ./cmd/relaxctl run -parallel all

# Bounded model checking of Theorem 4 and the companion claims.
verify:
	$(GO) run ./cmd/relaxctl verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/taxidispatch
	$(GO) run ./examples/bankatm
	$(GO) run ./examples/printspool
	$(GO) run ./examples/gridstore

clean:
	$(GO) clean ./...
