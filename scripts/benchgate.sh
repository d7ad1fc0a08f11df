#!/bin/bash
# scripts/benchgate.sh <base-ref>: the repo benchmark as a gate. Runs every
# BENCHMARK.json workload once (--seed 1 --seconds 16 --trace 0) on <base-ref>
# and on this checkout, and fails when a run is incorrect, an operation
# failed, or this checkout is worse than the base beyond a metric's bound.
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
for w in $workloads; do
  for side in base head; do
    dir=$root
    [ "$side" = base ] && dir=$tmp/base
    # A run that fails operations exits non-zero but still prints its JSON
    # line; the comparison below judges it.
    bash "$dir/bench/run.sh" --workload "$w" --seed 1 --seconds 16 --trace 0 |
      tail -n 1 >"$tmp/$side.$w.json" || true
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
python3 - "$root/BENCHMARK.json" "$tmp" <<'EOF2' || status=1
import json, sys
spec, tmp = json.load(open(sys.argv[1])), sys.argv[2]
# setup_s is printed, not gated: its bound is inside a shared runner's noise.
ungated = {"setup_s"}
bad = []
for w in (x["name"] for x in spec["workloads"]):
    runs = {side: json.load(open(f"{tmp}/{side}.{w}.json")) for side in ("base", "head")}
    for side, r in runs.items():
        if r["correct"] is not True or r["failed"] > 0:
            bad.append(f'{w} {side}: correct={r["correct"]} failed={r["failed"]}')
    for m in spec["end_to_end"]:
        b, h = (runs[side]["metrics"][m["name"]]["value"] for side in ("base", "head"))
        worse = (h - b) / b if m["better"] == "lower" else (b - h) / b
        note = ""
        if worse > m["bound"] and m["name"] in ungated:
            note = " (not gated)"
        elif worse > m["bound"]:
            note = " WORSE"
            bad.append(f'{w} {m["name"]}: {b} -> {h}, bound {m["bound"]:.0%}')
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
