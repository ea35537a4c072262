#!/bin/sh
# Perf-trajectory recorder: runs the BenchmarkCore* suite (engine
# schedule/fire and churn, interval add/remove/pop/mark/drain, log-space
# invariant check and reset, sanitizer sweep, histogram add, telemetry
# event encoding, journal event writing and compressed segment
# streaming, pooled disk IO round trip, fleet report merge, trace
# generation, end-to-end fleet and one replay per scheme) with
# -benchmem and writes the results to BENCH_core.json so
# successive PRs can diff ns/op and allocs/op against the committed
# baseline, then times a warm standalone `rololint ./...` run over the
# whole module and writes the best wall time to BENCH_lint.json (the
# 850 ms budget scripts/check.sh enforces), then runs the end-to-end benchmark
# (perfbench/run.py) for 20 s per workload at seed 0 and writes each
# workload's end-to-end medians to BENCH_e2e.json, beside the paper-scale
# cost: the CPU seconds and stdout sha256 of
# `roloexp -run fig10 -scale 1 -jobs 1`. Run from the repository root
# (or via `make bench`).
#
#	BENCH_COUNT=5 ./scripts/bench.sh    # more repetitions (best-of is kept)
#	BENCH_OUT=/tmp/b.json ./scripts/bench.sh
#	BENCH_LINT_OUT=/tmp/l.json ./scripts/bench.sh
#	BENCH_E2E_OUT=/tmp/e.json ./scripts/bench.sh
set -u

cd "$(dirname "$0")/.."

if ! command -v go >/dev/null 2>&1; then
	echo "bench.sh: go toolchain not found in PATH" >&2
	exit 1
fi

count="${BENCH_COUNT:-3}"
out="${BENCH_OUT:-BENCH_core.json}"
raw="$(mktemp)"
e2eraw="$(mktemp -d)"
trap 'rm -rf "$raw" "$e2eraw"' EXIT

echo "== go test -bench=Core -benchmem -count=$count" >&2
go test -run '^$' -bench 'Core' -benchmem -benchtime 1s -count "$count" \
	./internal/sim/ ./internal/intervals/ ./internal/logspace/ ./internal/invariant/ ./internal/metrics/ \
	./internal/telemetry/ ./internal/telemetry/journal/ ./internal/disk/ ./internal/fleet/ ./internal/trace/ . \
	| tee "$raw" >&2 || exit 1

# Collapse the -count repetitions into the best (lowest ns/op) run per
# benchmark — the repetition least disturbed by scheduling noise — and
# emit one JSON object per benchmark. Each value is read by the unit that
# follows it: b.SetBytes adds an MB/s column, which shifts the columns
# after ns/op.
awk -v goversion="$(go env GOVERSION)" '
/^pkg: /       { pkg = $2 }
/^Benchmark/ && / ns\/op/ && / allocs\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	key = pkg "\t" name
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1) + 0
		if ($i == "B/op") b = $(i - 1) + 0
		if ($i == "allocs/op") a = $(i - 1) + 0
	}
	if (!(key in best) || ns < best[key]) {
		best[key] = ns
		bytes[key] = b
		allocs[key] = a
		if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
	}
}
END {
	printf "{\n  \"go\": \"%s\",\n  \"benchtime\": \"1s\",\n  \"count\": %s,\n  \"benchmarks\": [\n", goversion, count
	for (i = 1; i <= n; i++) {
		key = order[i]
		split(key, kv, "\t")
		printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %.2f, \"b_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
			kv[1], kv[2], best[key], bytes[key], allocs[key], (i < n ? "," : "")
	}
	printf "  ]\n}\n"
}' count="$count" "$raw" >"$out" || exit 1

echo "bench.sh: wrote $out" >&2

# Lint latency: best-of-N warm standalone runs of the full analyzer
# suite over ./... — the local iteration loop whose budget check.sh
# enforces. The first (untimed) run warms the go list/export cache.
lintout="${BENCH_LINT_OUT:-BENCH_lint.json}"
echo "== rololint ./... warm wall time (best of $count)" >&2
go build -o bin/rololint ./cmd/rololint || exit 1
./bin/rololint ./... >/dev/null || exit 1
best=""
i=0
while [ "$i" -lt "$count" ]; do
	t0=$(date +%s%N)
	./bin/rololint ./... >/dev/null || exit 1
	t1=$(date +%s%N)
	ms=$(((t1 - t0) / 1000000))
	echo "  run $((i + 1)): ${ms}ms" >&2
	if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then
		best=$ms
	fi
	i=$((i + 1))
done
# The usage text lists one analyzer per indented line between the
# "analyzers:" header and the blank line that ends the block.
analyzers=$(./bin/rololint 2>&1 | sed -n '/^analyzers:$/,/^$/p' | grep -c '^  ')
printf '{\n  "go": "%s",\n  "count": %s,\n  "analyzers": %s,\n  "warm_wall_ms": %s,\n  "budget_ms": 850\n}\n' \
	"$(go env GOVERSION)" "$count" "$analyzers" "$best" >"$lintout" || exit 1
echo "bench.sh: wrote $lintout" >&2

# End-to-end record: one 20 s perfbench run per workload at seed 0, the
# inputs whose report digests perfbench checks. Each run's last stdout
# line is its JSON result; its three end-to-end medians, with units, go
# to BENCH_e2e.json.
e2eout="${BENCH_E2E_OUT:-BENCH_e2e.json}"
for w in replay_write replay_read fleet observed; do
	echo "== perfbench $w (seed 0, 20 s)" >&2
	python3 perfbench/run.py --workload "$w" --seed 0 --seconds 20 >"$e2eraw/$w" || exit 1
done
# Paper-scale cost: Figure 10's ten runs (five schemes on src2_2 and
# proj_0, replay_write's runs) at scale 1, one at a time. The child's CPU
# seconds come from getrusage, so no time(1) is needed.
echo "== roloexp -run fig10 -scale 1 -jobs 1" >&2
go build -o bin/roloexp ./cmd/roloexp || exit 1
python3 - "$e2eraw/paper_scale" <<'EOF' || exit 1
import hashlib, json, resource, subprocess, sys

cmd = ["bin/roloexp", "-run", "fig10", "-scale", "1", "-jobs", "1"]
out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "w") as f:
    json.dump({
        "command": "roloexp -run fig10 -scale 1 -jobs 1",
        "cpu_s": {"value": round(ru.ru_utime + ru.ru_stime, 2), "unit": "s"},
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }, f)
EOF
python3 - "$e2eraw" "$(go env GOVERSION)" >"$e2eout" <<'EOF' || exit 1
import json, os, sys

raw, goversion = sys.argv[1], sys.argv[2]
out = {"go": goversion, "seed": 0, "seconds": 20, "workloads": {}}
for w in ("replay_write", "replay_read", "fleet", "observed"):
    with open(os.path.join(raw, w)) as f:
        res = json.loads(f.read().strip().splitlines()[-1])
    if not res.get("correct") or res.get("failed"):
        sys.exit("bench.sh: perfbench %s failed its output check" % w)
    m = res["metrics"]
    out["workloads"][w] = {"iterations": res["attempted"]}
    out["workloads"][w].update({k: m[k] for k in ("setup_s", "sim_req_per_cpu_s", "peak_rss_mb")})
with open(os.path.join(raw, "paper_scale")) as f:
    out["paper_scale"] = json.load(f)
json.dump(out, sys.stdout, indent=2)
print()
EOF
echo "bench.sh: wrote $e2eout" >&2
