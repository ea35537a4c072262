#!/bin/sh
# Full verification gate: build, vet, gofmt, rololint, race-enabled tests, a
# race-enabled parallel experiment smoke, and a short fuzz smoke. Run from
# the repository root (or via `make check`).
#
# With no arguments every stage group runs in order. Arguments select
# groups, so CI can run them as separately-reported steps:
#
#	./scripts/check.sh build lint        # compile + analyzer gates only
#	./scripts/check.sh race-smoke        # the parallel runner under -race
#
# Groups: build, lint, test, race-smoke, bench-smoke, journal-smoke,
# fleet-smoke, fuzz.
#
# Every stage enumerates packages with `./...` patterns, which never
# descend into testdata: analyzer fixture packages (deliberate
# violations) are skipped here and — for explicit patterns — by the
# standalone driver itself (analysis.IsFixturePath).
set -u

cd "$(dirname "$0")/.."

if ! command -v go >/dev/null 2>&1; then
	echo "check.sh: go toolchain not found in PATH; install Go to run the gate" >&2
	exit 1
fi

groups="${*:-build lint test race-smoke bench-smoke journal-smoke fleet-smoke fuzz}"
for g in $groups; do
	case "$g" in
	build | lint | test | race-smoke | bench-smoke | journal-smoke | fleet-smoke | fuzz) ;;
	*)
		echo "check.sh: unknown stage group \"$g\" (have: build lint test race-smoke bench-smoke journal-smoke fleet-smoke fuzz)" >&2
		exit 2
		;;
	esac
done

want() {
	case " $groups " in
	*" $1 "*) return 0 ;;
	*) return 1 ;;
	esac
}

# stage <name> <cmd...> runs one gate stage, naming the stage that failed
# and propagating its exit status.
stage() {
	name="$1"
	shift
	echo "== $name"
	"$@"
	status=$?
	if [ "$status" -ne 0 ]; then
		echo "check.sh: stage failed: $name (exit $status)" >&2
		exit "$status"
	fi
}

if want build; then
	stage "go build ./..." go build ./...
	stage "go vet ./..." go vet ./...
	stage "gofmt -l (tracked .go files)" \
		sh -c 'out=$(gofmt -l $(git ls-files "*.go")) && \
			{ [ -z "$out" ] || { echo "gofmt needed on:" >&2; echo "$out" >&2; exit 1; }; }'
fi

if want lint; then
	stage "build rololint" go build -o bin/rololint ./cmd/rololint
	# The analyzer suite plus the lintallow waiver audit: a //lint:allow
	# that suppresses nothing, lacks a reason, or names an unknown
	# analyzer is itself a finding.
	stage "rololint ./..." ./bin/rololint ./...
	# Latency budget: a warm standalone run over the whole module (the
	# local iteration loop) must stay under 850 ms with all ten analyzers
	# plus the waiver audit enabled. The budget moves with the tree —
	# raised from 700 ms when the fleet layer added two packages — so it
	# catches lint regressions, not module growth. The earlier stages have
	# already warmed the build cache; scripts/bench.sh records the
	# measured trajectory in BENCH_lint.json.
	# Best of three runs, so one scheduler hiccup does not fail the gate.
	stage "rololint warm wall-time budget (<850ms)" \
		sh -c 'best=""; for i in 1 2 3; do \
				t0=$(date +%s%N); ./bin/rololint ./... >/dev/null || exit 1; t1=$(date +%s%N); \
				ms=$(( (t1 - t0) / 1000000 )); \
				if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best=$ms; fi; \
			done; \
			echo "warm standalone run: best ${best}ms of 3 (budget 850ms)"; \
			[ "$best" -lt 850 ] || { echo "rololint warm run exceeded the 850ms budget" >&2; exit 1; }'
fi

if want test; then
	stage "go test -race ./..." go test -race ./...
fi

# The parallel experiment runner under the race detector: every experiment
# at toy scale, four simulations in flight, sanitizer on. This exercises
# the pool, the result memo and the output streaming under real
# interleavings — the schedules `go test -race` alone would not produce.
if want race-smoke; then
	stage "build roloexp (-race)" go build -race -o bin/roloexp.race ./cmd/roloexp
	stage "roloexp -run all -jobs 4 -check (race smoke)" \
		sh -c './bin/roloexp.race -run all -jobs 4 -check -scale 0.01 -pairs 4 >/dev/null'
fi

# Bench smoke: run every BenchmarkCore* hot-path benchmark exactly once so
# the suite compiles and its 0-alloc setup code keeps working; `make bench`
# runs the timed version and records BENCH_core.json.
#
# It also gates on the frozen end-to-end benchmark harness, perfbench/ (its
# own module, compiled against the simulator's internal API): vet and test
# it (TestAssemblyMatchesRun checks it rebuilds rolo.Run exactly), then run
# each workload once at seed 0, where every report must match the digests
# in perfbench/digests.json ("correct":true on the last line). Those
# digests are recorded on linux/amd64; another platform's floating point
# may legitimately differ.
if want bench-smoke; then
	stage "bench smoke: go test -bench=Core -benchtime=1x" \
		go test -run '^$' -bench 'Core' -benchtime 1x \
		./internal/sim/ ./internal/intervals/ ./internal/logspace/ ./internal/invariant/ ./internal/metrics/ \
		./internal/telemetry/ ./internal/telemetry/journal/ ./internal/disk/ ./internal/fleet/ ./internal/trace/ .
	stage "perfbench: go vet, go test, build" \
		sh -c 'cd perfbench && go vet . && go test . && go build -o ../bin/perfbench .'
	for w in replay_write replay_read fleet observed; do
		stage "perfbench -workload $w -seed 0 -seconds 0.1 (report digests)" \
			sh -c "./bin/perfbench -workload $w -seed 0 -seconds 0.1 -out bin/perfbench-out/trace \
				-scratch bin/perfbench-out/journal 2>/dev/null | tail -n 1 | grep -q '\"correct\":true'"
	done
fi

# Journal smoke: a race-built rolosim writes a rotated, compressed journal
# through the async pipeline (ring handoff, writer goroutine, rotation,
# gzip archival, manifest) and its JSON report, rolostat verifies every
# segment checksum against the manifest, and the request count rolostat
# folds from the journal's RequestDone events must equal the report's.
# This drives the real binaries end to end under the race detector — the
# integration the unit tests can't cover. Then the whole experiment sweep
# writes one journal directory per simulation, and one per fleet shard
# (shard-NNNNN/), on four jobs, and every directory must verify against
# its manifest without a word on stderr: concurrent runs must never share
# a journal, and nothing may be dropped or truncated (a fleet shard emits
# ~1.3k events here, fewer than the async ring holds, so even the drop
# policy cannot drop). Then every tool that journals must refuse a
# segment size or compression given without -journal, with the one
# message RotateConfig.Validate gives, before it simulates, and must not
# know -journal-retain: journals keep every segment, so rolostat can
# reconcile a run from its first event to its last. Then rolofleet must
# refuse every out-of-range spec value with Spec.Validate's message
# (each flag sets its field of fleet.DefaultSpec as given, so no value
# may quietly mean "unset"), and tracegen a flag that its mode ignores.
# Last, every tool that takes no positional argument must refuse a stray
# word: flag parsing stops at the first non-flag, so without the check
# every flag after it would be dropped silently.
if want journal-smoke; then
	stage "build rolosim (-race) + rolostat + roloexp + rolofleet + tracegen + mttdl" \
		sh -c 'go build -race -o bin/rolosim.race ./cmd/rolosim && go build -o bin/rolostat ./cmd/rolostat && \
			go build -o bin/roloexp ./cmd/roloexp && go build -o bin/rolofleet ./cmd/rolofleet && \
			go build -o bin/tracegen ./cmd/tracegen && go build -o bin/mttdl ./cmd/mttdl'
	stage "rolosim -journal-segment -journal-compress (async journal smoke)" \
		sh -c 'rm -rf bin/journal-smoke && ./bin/rolosim.race -scheme RoLo-P -profile src2_2 -scale 0.01 -probe-interval 30s \
			-journal bin/journal-smoke -journal-segment 65536 -journal-compress -json >bin/journal-smoke.json'
	stage "rolostat -verify (manifest integrity)" \
		sh -c './bin/rolostat -verify bin/journal-smoke >/dev/null'
	stage "rolostat requests: count equals the -json report's Requests" \
		sh -c 'want=$(sed -n "s/^  \"Requests\": \([0-9]*\),\$/\1/p" bin/journal-smoke.json) && \
			got=$(./bin/rolostat bin/journal-smoke | sed -n "s/^requests: \([0-9]*\) .*/\1/p") && \
			[ -n "$want" ] && [ "$got" = "$want" ] || \
				{ echo "rolostat counts \"$got\" requests, the report \"$want\"" >&2; exit 1; }; \
			echo "journal and report agree on $want requests" && rm -rf bin/journal-smoke bin/journal-smoke.json'
	stage "roloexp -run all -jobs 4 -journal: rolostat -verify passes every journal directory" \
		sh -c 'rm -rf bin/exp-journals && t0=$(date +%s%N) && \
			./bin/roloexp -run all -scale 0.01 -pairs 4 -jobs 4 -journal bin/exp-journals >/dev/null && \
			n=0 && s=0 && for d in bin/exp-journals/*/; do \
				err=$(./bin/rolostat -verify "$d" 2>&1 >/dev/null) && [ -z "$err" ] || \
					{ echo "rolostat -verify $d: $err" >&2; exit 1; }; \
				case "$d" in */shard-*) s=$((s + 1)) ;; *) n=$((n + 1)) ;; esac; \
			done && [ "$n" -gt 0 ] && [ "$s" -gt 0 ] || \
				{ echo "found $n leaf journals and $s fleet shard journals" >&2; exit 1; }; \
			t1=$(date +%s%N) && echo "rolostat verified $n leaf journals and $s fleet shards in $(( (t1 - t0) / 1000000 ))ms" && \
			rm -rf bin/exp-journals'
	stage "rolosim, roloexp and rolofleet refuse journal options without -journal" \
		sh -c 't0=$(date +%s%N) && \
			for cmd in "./bin/rolosim.race -scale 0.01" "./bin/roloexp -run table1 -scale 0.01 -pairs 4" \
				"./bin/rolofleet -shards 4 -scale 0.01"; do \
				for opt in "-journal-segment 65536" -journal-compress; do \
					err=$($cmd $opt 2>&1 >/dev/null) && \
						{ echo "$cmd $opt exited 0 without -journal" >&2; exit 1; }; \
					case "$err" in \
					*"require -journal"*) ;; \
					*) echo "$cmd $opt failed for another reason: $err" >&2; exit 1 ;; \
					esac; \
				done; \
			done && t1=$(date +%s%N) && \
			echo "every tool refused every stray journal option in $(( (t1 - t0) / 1000000 ))ms"'
	stage "rolosim, roloexp and rolofleet reject -journal-retain as an undefined flag" \
		sh -c 'for cmd in "./bin/rolosim.race -scale 0.01" "./bin/roloexp -run table1 -scale 0.01 -pairs 4" \
				"./bin/rolofleet -shards 4 -scale 0.01"; do \
				err=$($cmd -journal-retain 2 2>&1 >/dev/null); status=$?; \
				[ "$status" -eq 2 ] || { echo "$cmd -journal-retain 2 exited $status, want 2" >&2; exit 1; }; \
				case "$err" in \
				*"flag provided but not defined: -journal-retain"*) ;; \
				*) echo "$cmd -journal-retain 2 failed for another reason: $err" >&2; exit 1 ;; \
				esac; \
			done && echo "no tool defines -journal-retain"'
	stage "rolofleet refuses out-of-range spec flags; tracegen refuses flags its mode ignores" \
		sh -c 'for opt in "-shards -5" "-pairs 0" "-scale 0" "-free -2" "-stripe -8" "-worst -3" "-iops-spread -0.5"; do \
				err=$(./bin/rolofleet $opt 2>&1 >/dev/null) && \
					{ echo "rolofleet $opt exited 0" >&2; exit 1; }; \
				case "$err" in \
				*"rolofleet: fleet: "*) ;; \
				*) echo "rolofleet $opt failed for another reason: $err" >&2; exit 1 ;; \
				esac; \
			done && \
			for args in "-profile src2_2 -spec iops=10 -scale 0.001" "-spec duration=1s -scale 0.5"; do \
				err=$(./bin/tracegen $args 2>&1 >/dev/null) && \
					{ echo "tracegen $args exited 0" >&2; exit 1; }; \
				case "$err" in \
				*"-scale requires -profile, and -spec excludes it"*) ;; \
				*) echo "tracegen $args failed for another reason: $err" >&2; exit 1 ;; \
				esac; \
			done && echo "rolofleet and tracegen refused every inapplicable value"'
	stage "rolosim, roloexp, rolofleet, tracegen and mttdl refuse a stray argument" \
		sh -c 'for cmd in "./bin/rolosim.race -scale 0.01" "./bin/roloexp -run table1 -scale 0.01 -pairs 4" \
				"./bin/rolofleet -shards 4 -scale 0.01" "./bin/tracegen -spec duration=1s" ./bin/mttdl; do \
				err=$($cmd extra 2>&1 >/dev/null) && \
					{ echo "$cmd extra exited 0" >&2; exit 1; }; \
				case "$err" in \
				*"unexpected arguments"*) ;; \
				*) echo "$cmd extra failed for another reason: $err" >&2; exit 1 ;; \
				esac; \
			done && echo "every tool refused a stray argument"'
fi

# Fleet smoke: a race-built rolofleet runs a sharded cluster with the
# sanitizer on, once serial and once on four jobs, and the two reports
# must hash identically — the end-to-end check of the deterministic
# streaming merge (DESIGN §16) under real goroutine interleavings.
if want fleet-smoke; then
	stage "build rolofleet (-race)" go build -race -o bin/rolofleet.race ./cmd/rolofleet
	stage "rolofleet -shards 32 -check: identical output at -jobs 1 and -jobs 4" \
		sh -c 'par=$(./bin/rolofleet.race -shards 32 -scale 0.01 -check -jobs 4 2>/dev/null | sha256sum) && \
			ser=$(./bin/rolofleet.race -shards 32 -scale 0.01 -check -jobs 1 2>/dev/null | sha256sum) && \
			{ [ "$par" = "$ser" ] || { echo "fleet report depends on -jobs: $par vs $ser" >&2; exit 1; }; }'
fi

# Fuzz smoke: a few seconds per target catches parser regressions on the
# seed corpus plus whatever the engine reaches quickly; `make fuzz` runs
# the long version.
if want fuzz; then
	stage "fuzz smoke: FuzzParseMSR" \
		go test -run '^$' -fuzz 'FuzzParseMSR$' -fuzztime 3s ./internal/trace/
	stage "fuzz smoke: FuzzParseSyntheticSpec" \
		go test -run '^$' -fuzz 'FuzzParseSyntheticSpec$' -fuzztime 3s ./internal/trace/
	stage "fuzz smoke: FuzzJournalRoundTrip" \
		go test -run '^$' -fuzz 'FuzzJournalRoundTrip$' -fuzztime 3s ./internal/telemetry/journal/
fi

echo "OK"
