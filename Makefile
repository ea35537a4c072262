GO ?= go

.PHONY: all build vet lint test race fuzz bench check nightly

all: check

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

# lint builds the repo's own analyzer suite and runs it over the tree's
# non-test files.
lint: build
	$(GO) build -o bin/rololint ./cmd/rololint
	./bin/rololint ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target for a meaningful stretch; the check
# gate runs the same targets for a few seconds as a smoke test.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParseMSR$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz 'FuzzParseSyntheticSpec$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz 'FuzzJournalRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/telemetry/journal/

# bench reruns the BenchmarkCore* hot-path suite and rewrites
# BENCH_core.json (best-of-BENCH_COUNT ns/op and allocs/op per benchmark),
# the committed perf-trajectory baseline that future PRs diff against,
# then BENCH_lint.json (warm lint time) and BENCH_e2e.json (perfbench's
# end-to-end medians per workload, 20 s runs at seed 0, and the CPU
# seconds of `roloexp -run fig10 -scale 1 -jobs 1`).
bench: build
	./scripts/bench.sh

# check is the full gate: everything CI (and a pre-commit) should run.
# check.sh also accepts stage-group arguments (build lint test race-smoke
# fuzz) so CI reports each group as its own step.
check:
	./scripts/check.sh

# nightly regenerates every experiment with the RoloSan sanitizer on, in
# parallel across the machine's cores, at a larger scale than the CI
# smoke, writing one telemetry journal directory per run (4 MiB
# gzip-compressed segments and a manifest, like every journal) through
# the async pipeline and then verifying every journal's manifest
# (segment checksums, counts, time ranges) with rolostat. The
# .github/workflows/nightly.yml schedule runs exactly this. One
# experiment escapes it: recovery assembles its controllers by hand and
# runs unchecked, without journals or probes. The fleet
# experiment's shards write their journals as shard-NNNNN/ directories,
# which the verify loop covers too. The default scale was raised from
# 0.2 when the allocation-free core (DESIGN §11) made checked sweeps
# ~5.7× faster.
NIGHTLY_SCALE ?= 0.5
NIGHTLY_PAIRS ?= 20
NIGHTLY_JOBS ?= 0
NIGHTLY_JOURNAL_DIR ?= bin/nightly-journals
NIGHTLY_JOURNAL_SEGMENT ?= 4194304
NIGHTLY_FLEET_SHARDS ?= 512
nightly: build
	$(GO) build -o bin/roloexp ./cmd/roloexp
	$(GO) build -o bin/rolostat ./cmd/rolostat
	rm -rf $(NIGHTLY_JOURNAL_DIR)
	./bin/roloexp -run all -check -scale $(NIGHTLY_SCALE) -pairs $(NIGHTLY_PAIRS) -jobs $(NIGHTLY_JOBS) \
		-journal $(NIGHTLY_JOURNAL_DIR) -journal-segment $(NIGHTLY_JOURNAL_SEGMENT) -journal-compress
	@for d in $(NIGHTLY_JOURNAL_DIR)/*/; do \
		echo "== rolostat -verify $$d"; \
		./bin/rolostat -verify "$$d" >/dev/null || exit 1; \
	done
	@echo "nightly: all journal manifests verified"
	$(GO) build -o bin/rolofleet ./cmd/rolofleet
	@echo "== rolofleet -shards $(NIGHTLY_FLEET_SHARDS) -check (determinism across job counts)"
	./bin/rolofleet -shards $(NIGHTLY_FLEET_SHARDS) -check -jobs 0 2>/dev/null > bin/fleet-par.txt
	./bin/rolofleet -shards $(NIGHTLY_FLEET_SHARDS) -check -jobs 1 2>/dev/null > bin/fleet-ser.txt
	cmp bin/fleet-par.txt bin/fleet-ser.txt
	@rm -f bin/fleet-par.txt bin/fleet-ser.txt
	@echo "nightly: fleet report identical at -jobs 0 and -jobs 1"
