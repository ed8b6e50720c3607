#!/usr/bin/env bash
# Runs N untraced passes of each workload, one seed per pass, and prints
# every end-to-end metric's median, quartiles, min and max, and its
# quartile spread ((q3 - q1) / median) against the bound BENCHMARK.json
# gives it. Run from the repository root:
#
#   bash benchmark/repeat.sh 10                 # every workload
#   bash benchmark/repeat.sh 5 rw_flight hot_batch
#   FIRST_SEED=101 bash benchmark/repeat.sh 5   # seeds 101..105
#
# Each pass's result line is kept in $CARGO_TARGET_DIR/repeat/<workload>.jsonl.
set -euo pipefail

n="${1:?usage: repeat.sh N [workload...]}"
shift
first="${FIRST_SEED:-1}"
out="${CARGO_TARGET_DIR:-.bench_build}/repeat"
mkdir -p "$out"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

for w in "${workloads[@]}"; do
  : > "$out/$w.jsonl"
  for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" \
             --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$line" >> "$out/$w.jsonl"
    echo "$w seed $seed: $line" >&2
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
worst = 0.0
for w in workloads:
    runs = [json.loads(l) for l in open(f"{out}/{w}.jsonl") if l.strip()]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"== {w}: {len(runs)} passes, {len(bad)} failed or incorrect")
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r["metrics"]]
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, spread / bound)
        flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound
                                               else " > BOUND")
        print(f"  {name:24} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{min(vals):12.4f} {max(vals):12.4f} {spread:7.3f} "
              f"{bound:6.2f}{flag}")
print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
EOF
