#!/usr/bin/env python3
"""Builds and runs cellbench, the trusted-cell benchmark.

Usage (from the repository root):

    python3 cellbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (all home-gateway cells, one owner per cell, one closed-loop
thread per cell, cells reach the provider only through Config.transport
with resilient_sync on; no fault injector, no admission controller):

  vault_local         3 cells, 256 preloaded 4 KiB docs each; 80% fetch of
                      a uniformly chosen own doc, 20% store of a new doc;
                      in-process transport.
  vault_wire          2 cells, same mix on 256 B docs, over loopback TCP to
                      an in-process RpcServer (2 workers, 1 warmed
                      connection per cell).
  shared_update_wire  2 cells with distinct owners, 64 preloaded 1 KiB docs
                      each; UpdateDocumentAtomic of a uniformly chosen own
                      doc, over loopback TCP.

BENCHMARK.json lists vault_local and shared_update_wire. vault_wire runs by
name but is left out there: its latency tails and throughput follow other
tenants' vCPU steal, which on a shared 4-vCPU host can last longer than a
run.

A run repeats rounds. Each round builds a fresh environment (provider,
loopback server and warmed connections, cells, vault preload) and performs
the same fixed operation sequence generated from --seed, so two commits do
identical work and vault size, posting-list length and journal length
never depend on speed. --seconds sets only the number of rounds (about
that long on a 4-vCPU x86 host). Titles and keywords are five terms drawn
Zipf(1) from a fixed 1,024-word vocabulary.

--trace 0 prints the end-to-end metrics (obs switched off). Each timing is
computed per round and the median over rounds is reported; rounds continue
(up to half as many again, within 1.5 times --seconds) until enough of
them saw under 3% vCPU steal, and the medians use the rounds with the
least steal. Every round's steal
is printed. The metrics:

  ops_per_s          completed operations / measured wall time
  cpu_us_per_op      user+sys CPU of the whole process / operations
  op_p50_us          median latency of the workload's main operation type
                     (fetch on vault_*, update on shared_update_wire)
  op_tail_us         its p99 (vault_*) or p95 (shared_update_wire)
  write_p50_us       median latency of the write type (store on vault_*,
                     update on shared_update_wire)
  write_tail_us      its p99 (vault_*) or p95 (shared_update_wire)
  provider_bytes_per_user_byte  growth of the provider's blob bytes /
                     plaintext bytes written
  setup_s            median set-up time of a round (cells, server and
                     pool warmup, vault preload)
  peak_rss_mb        median per-round peak resident set, from a trimmed
                     heap

Percentiles are exact nearest-rank values over every request of one
operation type in a round; the comment lines above the result give every
type's sample count. The error ratio ((non-OK statuses + read-back
mismatches) / attempted) is reported as "failed" and in a comment line;
any failure or failed output check makes "correct" false.

--trace 1 prints the per-layer metrics of the traced rounds, the tracing
overhead against interleaved untraced rounds, the "where did the us go"
tables (per workload, and per operation type from a serialized
attribution round) and the per-cell counts that repeat exactly for one
seed. Spans of the traced rounds are written to .bench_build/spans/.

The last line of stdout is the JSON result. The program is built from
source into .bench_build/cellbench on first use.

The output check's own test (a transport that flips one byte of GetBlob
replies must make exactly those fetches fail):

    cmake --build .bench_build/cellbench --target cellbench_flip_test
    ctest --test-dir .bench_build/cellbench
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "cellbench"
BINARY = BUILD_DIR / "cellbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "cellbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode == 0


def source_id():
    """git commit when available, plus a digest of the built sources (the
    benchmark may run in a checkout that is not a git repository)."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "git:%s,tree:%s" % (sha, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("cellbench: program sources not found under %s" % ROOT)
        return 1
    if not build():
        log("cellbench: build failed")
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans_dir / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        log("cellbench: run exceeded 175 s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
