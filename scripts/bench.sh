#!/bin/sh
# The BENCHMARK.json protocol over two commits, end-to-end metrics only.
#
# Exports each commit with `git archive` into its own directory under a
# scratch directory (each copy builds itself: cellbench/run.py builds into
# the copy's .bench_build/ on first use). Then, for every workload
# BENCHMARK.json declares, it runs 10 parent/change pairs (seeds 1-10,
# BENCHMARK.json's run_seconds, --trace 0) through each copy's own,
# unmodified cellbench/run.py, the parent first on odd seeds and the change
# first on even ones, and writes BENCH_cellbench.json at the repo root:
# both SHAs; per run the host line's nproc, compiler and steal, whether it
# ran `first` in its pair, every end-to-end metric's value, `correct` and
# `failed`; and per workload, side and metric the median and the
# interquartile range.
#
# Usage: scripts/bench.sh <parent-commit> <change-commit> [scratch-dir]
set -eu
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
scratch=${3:-${TMPDIR:-/tmp}/tc-bench}
for side in parent change; do
  rm -rf "$scratch/$side"
  mkdir -p "$scratch/$side"
done
git archive "$parent" | tar x -C "$scratch/parent"
git archive "$change" | tar x -C "$scratch/change"

python3 - "$scratch" "$parent" "$change" <<'EOF'
import json, re, statistics, subprocess, sys

scratch, parent, change = sys.argv[1:4]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
sides = {"parent": parent, "change": change}
out = {"parent": parent, "change": change, "seconds": spec["run_seconds"],
       "workloads": {}}

def run(side, workload, seed):
    proc = subprocess.run(
        ["python3", "cellbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", "0"],
        cwd=f"{scratch}/{side}", capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = [l for l in (proc.stdout + proc.stderr).splitlines()
            if l.startswith("# host ")][-1]
    fields = dict(re.findall(r"(\w+)=(\S+)", host))
    return {"seed": seed, "nproc": int(fields["nproc"]),
            "compiler": fields["compiler"],
            "steal_pct": float(fields["steal_pct"]),
            "correct": result["correct"], "failed": result["failed"],
            "values": {m: result["metrics"][m]["value"] for m in metrics}}

for workload in [w["name"] for w in spec["workloads"]]:
    runs = {"parent": [], "change": []}
    for seed in range(1, 11):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            runs[side].append(dict(run(side, workload, seed),
                                   first=side == order[0]))
            print(f"bench: {workload} seed {seed} {side} done",
                  file=sys.stderr, flush=True)
    summary = {}
    for side in sides:
        summary[side] = {}
        for m in metrics:
            values = [r["values"][m] for r in runs[side]]
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            summary[side][m] = {"median": statistics.median(values),
                                "iqr": q3 - q1}
    out["workloads"][workload] = {"runs": runs, "summary": summary}

with open("BENCH_cellbench.json", "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
EOF
echo "bench: wrote BENCH_cellbench.json"
