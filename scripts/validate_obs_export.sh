#!/bin/sh
# Runs bench_obs_overhead in --quick mode with --trace-json/--trace-jsonl
# and validates the exported artifacts are real, well-formed traces:
#
#   1. the Chrome trace_event file parses as JSON with a traceEvents array;
#   2. the JSONL file parses line by line;
#   3. the span tree is CONNECTED — every non-root span's parent id exists
#      in the same trace, and every event carries a nonzero trace id;
#   4. intervals NEST — a span's [ts, ts+dur] lies inside its parent's
#      interval (small slack for clock granularity);
#   5. the fleet telemetry plane scrape (--telemetry-json) parses and
#      carries the full schema: hub stats, per-source sequence numbers,
#      a merged aggregate whose histograms expose p50/p95/p99, sealed
#      windows with strictly increasing ids, and SLO burn-rate state;
#   6. the overload-plane metric snapshot (--overload-json) parses and
#      carries the plane's whole schema with every mechanism provably
#      fired: the provider gate's deadline shed, admission
#      rejected/limit/in-flight, retry-budget denials, and the queue-delay
#      histogram.
#
# This is the export-side half of the evidence chain: trace_tree_test and
# telemetry_test assert shape in-process; this script asserts the shape
# survives export, so a trace or scrape handed to an auditor is loadable
# and coherent.
#
# Requires python3 for the JSON checks; skips gracefully (exit 0 with a
# message) when it is missing, like scripts/tsan_tests.sh.
#
# Usage: scripts/validate_obs_export.sh [path-to-bench_obs_overhead]
# Default binary: build/bench/bench_obs_overhead (tier-1 build tree).
set -eu
cd "$(dirname "$0")/.."

bench="${1:-build/bench/bench_obs_overhead}"
if [ ! -x "$bench" ]; then
  echo "validate_obs_export: $bench not built; run the tier-1 build first" >&2
  exit 1
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "validate_obs_export: python3 not available; SKIPPING" >&2
  exit 0
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

"$bench" --quick --trace-json "$out_dir/trace.json" \
  --trace-jsonl "$out_dir/trace.jsonl" \
  --telemetry-json "$out_dir/telemetry.json" \
  --overload-json "$out_dir/overload.json" > "$out_dir/bench.log" 2>&1 || {
  echo "validate_obs_export: bench run failed:" >&2
  tail -20 "$out_dir/bench.log" >&2
  exit 1
}

python3 - "$out_dir/trace.json" "$out_dir/trace.jsonl" <<'EOF'
import json
import sys

json_path, jsonl_path = sys.argv[1], sys.argv[2]

doc = json.load(open(json_path))
events = doc["traceEvents"]
assert events, "traceEvents is empty"

lines = [json.loads(l) for l in open(jsonl_path) if l.strip()]
assert lines, "JSONL export is empty"

# Complete spans ("X") carry their own interval; "B"/"E" pairs are matched
# by span id. Instants ("I"/"i") only need a valid context.
spans = {}
for e in events:
    trace = e["args"]["trace"]
    span = e["args"]["span"]
    parent = e["args"]["parent"]
    assert trace != 0, f"event with no trace id: {e}"
    assert span != 0, f"event with no span id: {e}"
    if e["ph"] in ("X", "B", "E"):
        start, end = e["ts"], e["ts"] + e.get("dur", 0)
        if span in spans:
            prev = spans[span]
            start, end = min(start, prev[2]), max(end, prev[3])
        spans[span] = (trace, parent, start, end)

roots = 0
for span, (trace, parent, start, end) in spans.items():
    if parent == 0:
        roots += 1
        continue
    assert parent in spans, f"span {span}: parent {parent} not exported"
    ptrace, _, pstart, pend = spans[parent]
    assert ptrace == trace, f"span {span} crosses traces {trace}/{ptrace}"
    # 2 us slack: timestamps are integer microseconds and parent/child
    # stamps come from separate clock reads.
    assert start + 2 >= pstart and end <= pend + 2, (
        f"span {span} [{start},{end}] outside parent {parent} "
        f"[{pstart},{pend}]")
assert roots >= 1, "no root span exported"

print(f"validate_obs_export: OK ({len(events)} events, {len(spans)} spans, "
      f"{roots} root(s), {len(lines)} JSONL lines)")
EOF

python3 - "$out_dir/telemetry.json" <<'EOF'
import json
import sys

scrape = json.load(open(sys.argv[1]))

for key in ("stats", "seqs", "aggregate", "windows", "slos"):
    assert key in scrape, f"scrape missing top-level key {key!r}"

stats = scrape["stats"]
assert stats["applied"] >= 1, "hub applied no frames"
assert stats["reports"] >= stats["applied"], "applied exceeds reports"
assert stats["decode_errors"] == 0, "clean run produced decode errors"

seqs = scrape["seqs"]
assert seqs, "no per-source sequence numbers"
assert all(seq >= 1 for seq in seqs.values()), "acked seq below 1"

hists = scrape["aggregate"]["histograms"]
assert hists, "aggregate carries no histograms"
for name, h in hists.items():
    for key in ("count", "sum", "max", "p50", "p95", "p99"):
        assert key in h, f"aggregate histogram {name!r} missing {key!r}"
    assert h["p50"] <= h["p95"] <= h["p99"] <= h["max"], (
        f"aggregate histogram {name!r} quantiles not monotone: {h}")

ids = [w["id"] for w in scrape["windows"]]
assert ids == sorted(ids) and len(set(ids)) == len(ids), (
    f"window ids not strictly increasing: {ids}")
assert ids, "no sealed windows in the ring"

slos = scrape["slos"]
assert slos, "export run configures an SLO; scrape carries none"
for s in slos:
    for key in ("name", "burn_rate", "firing", "samples", "bad", "fires"):
        assert key in s, f"SLO entry missing {key!r}: {s}"

print(f"validate_obs_export: telemetry OK ({stats['sources']} sources, "
      f"{stats['applied']} frames applied, {len(ids)} windows, "
      f"{len(slos)} SLO(s))")
EOF

python3 - "$out_dir/overload.json" <<'EOF'
import json
import sys

snap = json.load(open(sys.argv[1]))
for key in ("counters", "gauges", "histograms"):
    assert key in snap, f"metric snapshot missing top-level key {key!r}"

counters = snap["counters"]
gauges = snap["gauges"]
hists = snap["histograms"]

# The export run fires every mechanism at least once, so each counter in
# the plane's schema must exist AND be nonzero — a name that parses but
# never moves is a dead export.
fired = (
    "cloud.overload.shed_expired",       # provider-gate deadline shed
    "cloud.overload.admission_rejected", # limiter pushback
    "net.retry_budget_denied",           # token-bucket retry cap
)
for name in fired:
    assert name in counters, f"overload counter {name!r} not exported"
    assert counters[name] >= 1, f"overload counter {name!r} never fired"

assert "cloud.overload.admission_limit" in gauges, (
    "admission limit gauge not exported")
assert gauges["cloud.overload.admission_limit"] >= 1, (
    f"admission limit below min: {gauges['cloud.overload.admission_limit']}")
assert "cloud.overload.in_flight" in gauges, (
    "admission in-flight gauge not exported")
assert gauges["cloud.overload.in_flight"] >= 0, (
    f"in-flight gauge negative: {gauges['cloud.overload.in_flight']}")

# Queue delay is the plane's control signal: the worker-pool wait
# histogram must be present, populated, and quantile-monotone.
wait = hists.get("worker_pool.task_wait_us")
assert wait is not None, "worker_pool.task_wait_us histogram not exported"
assert wait["count"] >= 1, "queue-delay histogram is empty"
assert wait["p50"] <= wait["p95"] <= wait["p99"] <= wait["max"], (
    f"queue-delay quantiles not monotone: {wait}")

print("validate_obs_export: overload OK "
      f"({', '.join(f'{n}={counters[n]}' for n in fired)}, "
      f"limit={gauges['cloud.overload.admission_limit']}, "
      f"wait_count={wait['count']})")
EOF
