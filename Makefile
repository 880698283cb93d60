GO ?= go

.PHONY: build test vet race fuzz sim verify bench bench-check bench-smoke bench-pairs loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-sensitive packages: the engine posts from many goroutines and
# the observability layer is read while posting; the txn and store
# substrates are exercised by the concurrency stress tests; the
# partitioned layer routes concurrent producers into single-writer
# loops over the cross-partition bus; the egress feed is tailed by
# concurrent subscribers while commits append to it.
race:
	$(GO) test -race ./internal/engine/ ./internal/obs/ ./internal/txn/ ./internal/store/ ./internal/part/ ./internal/egress/

# Short fuzz smoke over the event-language and mask parsers (one lexer
# and one mask grammar, package mask's, reached from both), the egress
# record codec, the delivery cursor file, the store's WAL and snapshot
# decoders (whose inputs are whole files, so minimizing a find is capped
# at 2 s; they take arbitrary bytes unfiltered — every count is checked
# against the bytes that remain, see DESIGN.md §17) and the provenance
# journal's operation scripts. Longer campaigns (nightly.yml runs the two
# parsers, the three file targets and the journal for 5 min each):
# go test -fuzz FuzzParseEvent ./internal/evlang/
# go test -fuzz FuzzParseMask ./internal/mask/
# go test -fuzz FuzzRecordCodec ./internal/egress/
# go test -fuzz FuzzCursorFile ./internal/egress/
# go test -fuzz FuzzWALFrames ./internal/store/
# go test -fuzz FuzzSnapshot ./internal/store/
# go test -fuzz FuzzProvJournal ./internal/obs/
fuzz:
	$(GO) test -fuzz FuzzParseEvent -fuzztime 5s -run '^$$' ./internal/evlang/
	$(GO) test -fuzz FuzzParseMask -fuzztime 5s -run '^$$' ./internal/mask/
	$(GO) test -fuzz FuzzRecordCodec -fuzztime 5s -run '^$$' ./internal/egress/
	$(GO) test -fuzz FuzzCursorFile -fuzztime 5s -fuzzminimizetime 2s -run '^$$' ./internal/egress/
	$(GO) test -fuzz FuzzWALFrames -fuzztime 5s -fuzzminimizetime 2s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzSnapshot -fuzztime 5s -fuzzminimizetime 2s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzProvJournal -fuzztime 5s -run '^$$' ./internal/obs/

# Deterministic-simulation smoke (the CI sim-short job): single-engine
# seeded runs, the multi-partition scripts (per-partition WAL faults,
# independent recovery, bus determinism), and the egress family
# (deliverer crashes, cursor tears, exactly-once ledger; -short keeps
# the egress torture at smoke size), and fault-free scripts with the
# shadow oracle on and off. Full torture campaigns run via
# `go run ./cmd/odesim -iters N -seed S` (nightly.yml runs 10 000).
sim:
	$(GO) test -race -short -run 'TestSimShort|TestMultipart|TestEgress|TestOracleOff' ./internal/sim/

# bench/ is a module of its own (ode/bench), so build/test/vet above
# never compile it: vet and test it here, against this tree's internal/
# packages, so a signature change cannot break the benchmark unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The benchmark program end to end: every workload once, one second
# each; it exits non-zero if any operation fails, so a change that
# compiles but breaks a workload fails here rather than in a paired run.
bench-smoke:
	bash bench/run.sh -all --seed 1 --seconds 1

# Paired runs of a parent commit against this tree, the table a
# performance claim rests on (see scripts/benchpairs.sh):
# make bench-pairs PARENT=<sha> [WORKLOADS="single_masked …" N=10 SEED=1]
N ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" || { echo 'usage: make bench-pairs PARENT=<sha> [WORKLOADS="…" N=10 SEED=1]'; exit 2; }
	N=$(N) SEED=$(SEED) bash scripts/benchpairs.sh $(PARENT) $(WORKLOADS)

# Non-test .go lines per internal/* package and for cmd/, then the same
# without blank and //-comment lines — the figures a refactor states
# before and after (ROADMAP.md: "state the non-test line delta per
# package").
loc:
	@for d in internal/*/ cmd/; do \
		src() { find "$$d" -name '*.go' ! -name '*_test.go' -exec cat {} +; }; \
		printf '%-20s %6d %6d\n' "$$d" "$$(src | wc -l)" "$$(src | grep -Ecv '^[[:space:]]*(//|$$)')"; \
	done

# The tier-1 verification gate (see ROADMAP.md).
verify: build test vet race fuzz bench-check

# The root package's Go benchmarks: the paper-claim experiments E1–E9
# (DESIGN.md §5) and the engine's posting paths. Writes nothing; the
# end-to-end numbers a performance claim rests on come from bench/
# (bench-smoke, bench-pairs).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
