#!/bin/bash
# scripts/benchgate.sh <base-ref>: the repo benchmark as a gate. Runs every
# BENCHMARK.json workload in three pairs (--seed 1 --seconds 16 --trace 0),
# one run on <base-ref> and one on this checkout per pair, alternating which
# side goes first, and fails when a run is incorrect, an operation failed,
# or this checkout's median is worse than the base's beyond a metric's
# bound. One pair swings setup_s and heap_live_mb past their bounds on
# changes that touch neither; the median of alternating pairs does not.
# It also runs every workload traced (--seconds 2 --trace 1) on this checkout
# and fails when a traced run exits non-zero twice in a row: the trace's
# self-check trips when a handler outruns the benchmark's twin of it.
set -euo pipefail
base=${1:?usage: scripts/benchgate.sh <base-ref>}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
workloads=$(python3 -c 'import json, sys
print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$root/BENCHMARK.json")
pairs="1 2 3"
for w in $workloads; do
  for pair in $pairs; do
    order="base head"
    [ $((pair % 2)) = 0 ] && order="head base"
    for side in $order; do
      dir=$root
      [ "$side" = base ] && dir=$tmp/base
      # A run that fails operations exits non-zero but still prints its JSON
      # line; the comparison below judges it.
      bash "$dir/bench/run.sh" --workload "$w" --seed 1 --seconds 16 --trace 0 |
        tail -n 1 >"$tmp/$side.$w.$pair.json" || true
    done
  done
done
trace_bad=
for w in $workloads; do
  for try in 1 2; do
    if bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 2 --trace 1 |
      tail -n 1 >"$tmp/trace.$w.json"; then
      continue 2
    fi
  done
  trace_bad="$trace_bad $w"
done
status=0
python3 - "$root/BENCHMARK.json" "$tmp" $pairs <<'EOF2' || status=1
import json, statistics, sys
spec, tmp, pairs = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3:]
bad = []
for w in (x["name"] for x in spec["workloads"]):
    runs = {side: [json.load(open(f"{tmp}/{side}.{w}.{p}.json")) for p in pairs] for side in ("base", "head")}
    for side, rs in runs.items():
        for p, r in zip(pairs, rs):
            if r["correct"] is not True or r["failed"] > 0:
                bad.append(f'{w} {side} pair {p}: correct={r["correct"]} failed={r["failed"]}')
    for m in spec["end_to_end"]:
        b, h = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs[side]) for side in ("base", "head"))
        worse = (h - b) / b if m["better"] == "lower" else (b - h) / b
        note = ""
        if worse > m["bound"]:
            note = " WORSE"
            bad.append(f'{w} {m["name"]}: median {b} -> {h}, bound {m["bound"]:.0%}')
        print(f'{w:14} {m["name"]:16} base {b:11.3f}  head {h:11.3f}  {worse:+7.2%}{note}')
for line in bad:
    print("FAIL", line)
sys.exit(1 if bad else 0)
EOF2
for w in $trace_bad; do
  echo "FAIL $w head --trace 1: non-zero exit twice; last line: $(cat "$tmp/trace.$w.json")"
  status=1
done
exit $status
