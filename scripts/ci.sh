#!/bin/sh
# The tier-1 verify, end to end (cited by ROADMAP.md):
#
#   1. configure + build the default tree;
#   2. run the full ctest suite once: all 38 registrations, including the
#      wire legs (the chaos/txn/telemetry/overload suites rerun with
#      TC_TRANSPORT=socket over real loopback TCP; where loopback sockets
#      are unavailable they GTEST_SKIP with a printed reason), the
#      lockfree, telemetry and overload suites, and the four example
#      binaries, which TC_CHECK every step of their end-to-end flows. Each
#      test runs exactly once here; the ctest labels (wire, lockfree,
#      telemetry, overload, chaos, txn, example) stay for running one lane
#      by hand, e.g. `ctest --test-dir build -L overload`;
#   3. run the store-scaling report harness once (bench_e17_lockfree --quick,
#      a fraction of a second), so E17 is executed and not only built;
#   4. threat-model gate (bench_e8_threats, a few seconds): it exits
#      non-zero unless the cells convict every tamper and rollback the
#      adversary injected and stolen keys cannot decrypt another user's
#      blob;
#   5. partition gate (bench_e14_partitions --outage_ms=200, under a
#      second): it exits non-zero unless every fault-rate row and the
#      forced-outage leg converge every cell with no failed cell, and the
#      lossy run ends byte-identical to the clean one;
#   6. transaction gate (bench_e15_txn, under a second): it exits non-zero
#      when any run fails, any cell fails or does not converge, or any
#      row's history checker finds a serializability violation;
#   7. evidence gate (bench_e13_evidence, a few seconds): it aborts unless
#      every sealed, quoted audit export verifies, its quote checked
#      against the device's manufacturer endorsement — the only code that
#      checks a quote that way;
#   8. deep chaos/txn lane (opt-in): TC_CHAOS_SEEDS widens the fault-rate x
#      seed sweeps, re-running only the suites labeled chaos/txn — CI keeps
#      the cheap default, nightly jobs export TC_CHAOS_SEEDS=25;
#   9. chaos determinism gate: every chaos seed must replay exactly from
#      its printed fault schedule (a chaos failure that cannot be
#      reproduced from its schedule print is not debuggable);
#  10. build the benchmark (cellbench/) from this tree into build-cellbench/
#      and run its output check, cellbench_flip_test: cellbench implements
#      CloudTransport and reads ChannelStats, so a src/ change can break
#      the benchmark while the main build still passes;
#  11. build rpc_test, codec_test, crypto_test, tee_test, storage_test,
#      lockfree_test, cloud_test, txn_test, cell_test,
#      recovery_approval_test, obs_journal_test and policy_test under the
#      asan-ubsan preset into build-asan/ and run them with leak checking:
#      the audit journal's Verify and the audit export's VerifyAndDecrypt,
#      which decode bytes that arrive over the bus, the wire codec's and
#      every stored or sent record's truncation, byte-flip and
#      trailing-byte sweeps, the AEAD's seal and open, which read and write
#      through raw pointers into one buffer, the LogStore's buffered
#      records, parsed back in place by gets, flushes, scans and GC while
#      other threads write, the BlobStore's payloads, which vector growth
#      moves, Delete erases and MutateLatest edits in place while the token
#      table points into its map's keys, and the cell's document registry,
#      which holds, replaces and erases the entry bytes every manifest is
#      built from across store, update, forget, approval and pull, claim
#      "no over-read" and "no use after free", and only AddressSanitizer
#      enforces that (the build takes a few minutes, the runs a few seconds
#      each);
#  12. check no generated build*/ tree is tracked or staged;
#  13. run the obs export validator (quick bench run + trace JSON checks).
#
# Each step's script documents its own skip conditions; this wrapper just
# sequences them and stops at the first failure.
set -eu
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")
build/bench/bench_e17_lockfree --quick > /dev/null
build/bench/bench_e8_threats > /dev/null
build/bench/bench_e14_partitions --outage_ms=200 > /dev/null
build/bench/bench_e15_txn > /dev/null
build/bench/bench_e13_evidence > /dev/null
if [ -n "${TC_CHAOS_SEEDS:-}" ]; then
  echo "ci: deep chaos/txn lane (TC_CHAOS_SEEDS=${TC_CHAOS_SEEDS})"
  (cd build && ctest --output-on-failure -L 'chaos|txn')
fi
build/tests/chaos_test \
  --gtest_filter='*ReproducesFromPrintedSchedule*' > /dev/null || {
  echo "ci: chaos schedule replay is NOT deterministic" >&2
  exit 1
}
cmake -S cellbench -B build-cellbench
cmake --build build-cellbench -j "$(nproc)" --target cellbench cellbench_flip_test
(cd build-cellbench && ctest --output-on-failure)
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" \
  --target rpc_test codec_test crypto_test tee_test storage_test lockfree_test \
  cloud_test txn_test cell_test recovery_approval_test obs_journal_test \
  policy_test
for t in rpc_test codec_test crypto_test tee_test storage_test lockfree_test \
    cloud_test txn_test cell_test recovery_approval_test obs_journal_test \
    policy_test; do
  ASAN_OPTIONS=detect_leaks=1 "build-asan/tests/$t" --gtest_brief=1
done
scripts/check_tree_clean.sh
scripts/validate_obs_export.sh
echo "ci: all tier-1 checks passed"
