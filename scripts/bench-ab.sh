#!/usr/bin/env bash
# Same-box A/B gate: runs perfbench on a base revision and on the
# working tree, in interleaved pairs, and fails if the change is worse
# than the base by more than a BENCHMARK.json bound. Run from anywhere
# inside the repository (needs git, bash, jq and a Go toolchain):
#
#   scripts/bench-ab.sh HEAD^1      # or: make bench-ab
#
# The base tree is exported with git archive into a temporary directory,
# so no worktree metadata is left behind. Each side is built once by its
# own perfbench/run.sh into its own CARGO_TARGET_DIR. Pair i runs both
# sides with --seed i; the base runs first in odd pairs and the change
# runs first in even pairs, so drift on the host does not favour one
# side. Workloads and end-to-end metrics (name, better, bound) are read
# from BENCHMARK.json. For every workload x metric the gate compares the
# change's median with the base's median. It also fails if a change run
# reports correct: false, or if the change has more failed runs than the
# base. It prints each cell's medians with their interquartile ranges,
# then one JSON summary line.
set -euo pipefail

# Measured spread on a 2-CPU box, where a run of the gate takes about
# 4 minutes: for a no-op commit the median ratio of every workload x
# host-metric cell (wall_s, setup_s, peak_rss_mb) read 0.95-1.04. The
# noisiest cells are ladder setup_s (about 1.3 us per build; 1.23 on a
# change that does not touch set-up) and fabric512 peak_rss_mb (IQR up
# to a quarter of the median, from garbage-collector timing).
readonly PAIRS=5
readonly RUN_SECONDS=5

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git rev-parse HEAD)
git diff --quiet HEAD -- || change_rev="$change_rev-dirty"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"

declare -A dir=([base]="$tmp/base" [change]="$root")
for side in base change; do
	echo "bench-ab: building $side" >&2
	# -h makes the freshly built driver print its usage and exit 0.
	(cd "${dir[$side]}" && CARGO_TARGET_DIR="$tmp/build-$side" bash perfbench/run.sh -h) >"$tmp/log" 2>&1 ||
		{ cat "$tmp/log" >&2; echo "bench-ab: building $side failed" >&2; exit 1; }
done

# run SIDE WORKLOAD PAIR appends the run's JSON result line, tagged
# with side, workload and pair, to runs.jsonl.
run() {
	local out
	if ! out=$(cd "${dir[$1]}" && "$tmp/build-$1/perfbench" \
		--workload "$2" --seed "$3" --seconds "$RUN_SECONDS" --trace 0 2>"$tmp/log"); then
		cat "$tmp/log" >&2
		echo "bench-ab: $1 $2 seed $3: perfbench failed" >&2
		exit 1
	fi
	tail -n 1 <<<"$out" | jq -c --arg side "$1" --arg w "$2" --argjson pair "$3" \
		'{side: $side, workload: $w, pair: $pair} + .' >>"$tmp/runs.jsonl"
}

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
for ((i = 1; i <= PAIRS; i++)); do
	order="base change"
	((i % 2)) || order="change base"
	for w in "${workloads[@]}"; do
		echo "bench-ab: pair $i/$PAIRS $w ($order)" >&2
		for side in $order; do
			run "$side" "$w" "$i"
		done
	done
done

jq -rn --slurpfile spec BENCHMARK.json --slurpfile runs "$tmp/runs.jsonl" \
	--arg base "$base_rev" --arg change "$change_rev" --argjson num_cpu "$(nproc)" \
	--argjson pairs "$PAIRS" --argjson seconds "$RUN_SECONDS" '
def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $lo
  | $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
def sig: if . == 0 or isinfinite then . else pow(10; 3 - (fabs | log10 | floor)) as $k | (. * $k | round) / $k end;
def pad($n): tostring | . + " " * ($n - length);
def show: "\(.median | sig) [\(.q1 | sig)-\(.q3 | sig)]";
def side($w; $s): [$runs[] | select(.workload == $w and .side == $s)];

[ $spec[0].workloads[].name as $w | $spec[0].end_to_end[] as $m
  | (side($w; "base") | map(.metrics[$m.name].value) | stats) as $b
  | (side($w; "change") | map(.metrics[$m.name].value) | stats) as $c
  | (if $b.median == 0 then (if $c.median == 0 then 1 else infinite end)
     else $c.median / $b.median end) as $ratio
  | {workload: $w, metric: $m.name, better: $m.better, bound: $m.bound,
     base: $b, change: $c, ratio: $ratio,
     ok: (if $m.better == "lower" then $ratio <= 1 + $m.bound else $ratio >= 1 - $m.bound end)}
] as $cells
| [ ($cells[] | select(.ok | not)
     | "\(.workload) \(.metric): change median \(.change.median | sig) vs base \(.base.median | sig) (ratio \(.ratio | sig), bound \(.bound), \(.better) is better)"),
    ($spec[0].workloads[].name as $w
     | (side($w; "change")[] | select(.correct | not) | "\($w): change run seed \(.pair) has correct: false"),
       ((side($w; "change") | map(.failed) | add) as $cf | (side($w; "base") | map(.failed) | add) as $bf
        | select($cf > $bf) | "\($w): change has \($cf) failed runs, base \($bf)"))
  ] as $failures
| ("workload   " + ("metric" | pad(21)) + ("base median [IQR]" | pad(34)) + ("change median [IQR]" | pad(34)) + "ratio"),
  ($cells[] | (.workload | pad(11)) + (.metric | pad(21)) + (.base | show | pad(34))
     + (.change | show | pad(34)) + (.ratio | sig | pad(7)) + (if .ok then "ok" else "WORSE" end)),
  ($failures[] | "FAIL: " + .),
  ({gate: "bench-ab", pass: ($failures | length == 0), num_cpu: $num_cpu,
    base: $base, change: $change, pairs: $pairs, seconds: $seconds,
    cells: [$cells[] | {workload, metric, base: (.base.median | sig), change: (.change.median | sig),
                        ratio: (.ratio | sig)}],
    failures: $failures} | tojson)
' | tee "$tmp/report"
tail -n 1 "$tmp/report" | jq -e .pass >/dev/null
