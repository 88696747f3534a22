#!/usr/bin/env bash
# Tier-1 verification: the gate every change must pass.
#
#   1. Regular build + full ctest suite (RelWithDebInfo, CMakePresets
#      "default" preset), then the same under the "release" preset (-O3,
#      where GCC's inliner exposes warnings -Werror must not trip on).
#   2. ThreadSanitizer build of the concurrency-heavy binaries, running the
#      observability (test_obs), simulated-MPI (test_mpsim), union-find
#      (test_dsu), and service-layer (test_serve: concurrent sessions,
#      cancellation, job queue) suites, the parallel-vs-sequential
#      IndexCreate tests (test_indices), plus the binned-output,
#      packed-read-store and pass-engine differential legs (GoldenW1 +
#      Differential.ModesAgree*: both fusion widths over both read stores
#      and both codecs at k = 15, 33 and 63, strict and lenient, so the
#      Kmer128 engine and its sentinel tuples run too, plus the real k-mer
#      at a sentinel key) — the paths that stress cross-thread event buffers,
#      mailboxes, the parallel MergeCC flatten (atomic_ref size counting),
#      the per-thread merHist accumulators and in-place cumulative rows of
#      the parallel histogram loop, the packed KmerGen scan (threads over
#      one shared in-memory arena), and the pass engine's T threads of every
#      rank storing per-(dest rank, dest thread) blocks straight into the
#      destination ranks' window buffers between two fences (test_mpsim
#      also runs the Window epoch and fence-cost cases).
#   3. Address+UBSanitizer build running the fault-injection (test_faults,
#      with UBSan notes fatal), FASTQ parsing (test_fastq), packed arena
#      (test_packed_store: sharded-ingest merge offsets, page-spanning
#      arenas and packed scan bounds), index loading (test_indices:
#      truncated and hostile index files), radix sort (test_sort: MSD bucket offsets),
#      the LocalSort + LocalCC kernel (test_group: bucket scatter and hash
#      grouping against a brute-force map, 64- and 128-bit keys), and
#      exchange-compression (test_superkmer, the comm-compress differential
#      grid), pass-engine (GoldenW1 + Differential.ModesAgree* +
#      Differential.RealKmerAtSentinelKeyJoinsReads, the same legs as under
#      TSan) and run-field (test_run_fields:
#      hostile integers and doubles and an empty `out` on the CLI and JSON
#      surfaces) suites — the paths that do raw buffer
#      arithmetic and deliberately corrupt / truncate input, including the
#      super-k-mer wire decode, the bounded window block cursors (a chunk
#      yielding more k-mers than indexed) and a rank failing mid-sweep while
#      peers still store into its window (test_faults KmerGenBounds.*).
#   4. metaprepd daemon smoke: start the job-queue daemon on an AF_UNIX
#      socket, submit a job via `metaprep_cli daemon`, poll it to
#      completion, fetch the partition manifest, send a ranks=0 submit to
#      its --max-threads clamp and ping it, cancel a queued job under
#      pause, shut down cleanly — failing on a leaked child process or
#      socket file.
#   5. Correctness tooling: the metaprep-lint analyzer (scripts/lint.sh
#      builds and drives tools/metaprep-lint), clang-tidy static analysis
#      plus the clang -Wthread-safety capability-annotation proof when clang
#      is available (scripts/analyze.sh; both skip with a notice otherwise),
#      and the src/check verification layer live (METAPREP_CHECK=1) over the
#      seeded-violation suite plus a checked differential slice.
#
# Usage: scripts/tier1.sh [-jN]   (default -j$(nproc))
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:--j$(nproc)}"

echo "=== tier 1: metaprep-lint repo-idiom analyzer (scripts/lint.sh) ==="
scripts/lint.sh

echo "=== tier 1: configure + build (default preset) ==="
cmake --preset default
cmake --build --preset default "${JOBS}"

echo "=== tier 1: full test suite ==="
ctest --preset default "${JOBS}"

echo "=== tier 1: Release (-O3) build + full test suite (-Werror at every build type) ==="
cmake --preset release
cmake --build --preset release "${JOBS}"
ctest --preset release "${JOBS}"

echo "=== tier 1: clang-tidy + clang -Wthread-safety capability proof (each skips when its tool is absent) ==="
scripts/analyze.sh build

echo "=== tier 1: checked mode (METAPREP_CHECK=1 seeded violations + differential slice) ==="
METAPREP_CHECK=1 ./build/tests/test_check
METAPREP_CHECK=1 ./build/tests/test_differential --gtest_filter='*P2*'

echo "=== tier 1: packed-vs-text differential (read-store grid + lenient consistency) ==="
./build/tests/test_differential --gtest_filter='*Packed*'
./build/tests/test_packed_store

echo "=== tier 1: exchange-compression unit suite (super-k-mer records) ==="
./build/tests/test_superkmer

echo "=== tier 1: checked comm-compress differential (protocol checker over compressed payloads) ==="
METAPREP_CHECK=1 ./build/tests/test_differential --gtest_filter='CompressGrid/*'

echo "=== tier 1: attribution report leg (traced fig5-style run -> metaprep-report) ==="
REPORT_DIR="$(mktemp -d /tmp/metaprep_tier1_report.XXXXXX)"
trap 'if [ -n "${DPID:-}" ]; then kill "${DPID}" 2>/dev/null || true; fi; rm -rf "${REPORT_DIR}"' EXIT
./build/examples/metaprep_cli sim --out="${REPORT_DIR}/data" --preset=HG --sim-scale=0.2 >/dev/null
./build/examples/metaprep_cli index --out="${REPORT_DIR}/idx.bin" --chunks=32 \
  "${REPORT_DIR}/data/HG_1.fastq" "${REPORT_DIR}/data/HG_2.fastq" >/dev/null
./build/examples/metaprep_cli run --index="${REPORT_DIR}/idx.bin" \
  --ranks=4 --threads=4 --passes=2 --out="${REPORT_DIR}/out" \
  --attr-out="${REPORT_DIR}/attr.json" --trace-out="${REPORT_DIR}/trace.json" \
  --metrics-out="${REPORT_DIR}/metrics.jsonl" >/dev/null
# Human-readable path must render; offline trace re-analysis must agree on
# the phase set; the JSON document must satisfy the attribution schema.
./build/tools/metaprep-report --attr="${REPORT_DIR}/attr.json" >/dev/null
./build/tools/metaprep-report --trace="${REPORT_DIR}/trace.json" \
  --metrics="${REPORT_DIR}/metrics.jsonl" >/dev/null
./build/tools/metaprep-report --attr="${REPORT_DIR}/attr.json" --json \
  > "${REPORT_DIR}/report.json"
python3 - "${REPORT_DIR}/report.json" "${REPORT_DIR}/attr.json" \
  "${REPORT_DIR}/metrics.jsonl" <<'PYEOF'
import json, sys

d = json.load(open(sys.argv[1]))
assert d["ranks"] == 4 and d["threads"] == 4 and d["passes"] == 2, d
assert d["wall_s"] > 0 and d["trace_span_s"] > 0

phases = {p["name"]: p for p in d["phases"]}
assert phases, "no phases in attr.json"
for name in ("KmerGen", "KmerGen-Comm", "LocalSort", "LocalCC", "MergeCC"):
    assert name in phases, f"missing phase {name}"
for p in phases.values():
    assert p["imbalance"] >= 1.0 or p["self_s"] == 0, p
    assert len(p["per_rank"]) >= 1

cp = d["critical_path"]
assert cp["steps"], "empty critical path"
assert 0 < cp["length_s"] <= d["wall_s"] * 1.001, cp["length_s"]
assert abs(cp["wait_s"] + cp["compute_s"] - cp["length_s"]) < 1e-6

comm = d["comm"]
assert comm["ranks"] == 4 and len(comm["bytes"]) == 4 and len(comm["msgs"]) == 4
assert comm["skew"] > 0, "no off-diagonal traffic recorded"
# The two comm-matrix exports must agree: attr.json's non-zero off-diagonal
# byte cells are exactly what the mpsim.comm_matrix histogram recorded, and
# its skew is the mpsim.comm_matrix_skew gauge.
attr_comm = json.load(open(sys.argv[2]))["comm"]
cells = [v for i, row in enumerate(attr_comm["bytes"]) for j, v in enumerate(row)
         if i != j and v > 0]
metrics = {m["name"]: m for m in map(json.loads, open(sys.argv[3]))}
hist = metrics["mpsim.comm_matrix"]
assert (hist["count"], hist["sum"]) == (len(cells), sum(cells)), (hist, len(cells), sum(cells))
assert metrics["mpsim.comm_matrix_skew"]["value"] == attr_comm["skew"], \
    (metrics["mpsim.comm_matrix_skew"], attr_comm["skew"])

mem = {m["name"]: m for m in d["memory"]["subsystems"]}
for name in ("tuples", "dsu", "io"):
    assert name in mem and mem[name]["high_water_bytes"] > 0, name
    assert mem[name]["predicted_bytes"] > 0, f"{name} lacks a memory_model prediction"
assert d["memory"]["peak_rss_bytes"] > 0
assert d["memory"]["rss_samples"], "no phase-boundary RSS samples"
print("report leg: schema OK "
      f"({len(phases)} phases, crit path {cp['length_s']:.3f}s of {d['wall_s']:.3f}s)")
PYEOF
# Independent partition check from the FASTQ files alone: the paper split
# (.lc/.other) and a binned run of the same index must share no k-mer
# across partitions.
./build/examples/verify_partition --k=27 "${REPORT_DIR}"/out/*.fastq >/dev/null
./build/examples/metaprep_cli run --index="${REPORT_DIR}/idx.bin" \
  --ranks=4 --threads=4 --passes=2 --output-bins=3 --out="${REPORT_DIR}/outb" >/dev/null
./build/examples/verify_partition --k=27 "${REPORT_DIR}"/outb/*.fastq >/dev/null
echo "report leg: verify_partition OK (paper split and 3 output bins)"

echo "=== tier 1: metaprepd daemon smoke (submit/status/fetch/cancel over AF_UNIX) ==="
DSOCK="${REPORT_DIR}/metaprepd.sock"
./build/tools/metaprepd --socket="${DSOCK}" --job-dir="${REPORT_DIR}/jobs" --max-threads=4 &
DPID=$!
for _ in $(seq 1 100); do
  [ -S "${DSOCK}" ] && break
  sleep 0.05
done
./build/examples/metaprep_cli daemon ping --socket="${DSOCK}" >/dev/null
# Reuse the report leg's index: submit an overlap job and poll to completion.
./build/examples/metaprep_cli daemon submit --socket="${DSOCK}" \
  --index="${REPORT_DIR}/idx.bin" --ranks=2 --threads=2 --passes=2 \
  --pipeline-mode=overlap --out="${REPORT_DIR}/dout" >/dev/null
STATUS_OUT="$(./build/examples/metaprep_cli daemon status --socket="${DSOCK}" --job=1 --wait=120)"
echo "${STATUS_OUT}" | grep -q '"state":"done"' \
  || { echo "daemon smoke: job 1 did not complete: ${STATUS_OUT}"; exit 1; }
./build/examples/metaprep_cli daemon fetch --socket="${DSOCK}" --job=1 \
  | grep -q '"output_files":\[' \
  || { echo "daemon smoke: fetch returned no partition manifest"; exit 1; }
# Per-job observability artifacts, scoped by job id, plus the same
# manifest.tsv sidecar a direct CLI run leaves next to the bins.
test -s "${REPORT_DIR}/jobs/job-1.trace.json"
test -s "${REPORT_DIR}/jobs/job-1.metrics.jsonl"
test -s "${REPORT_DIR}/dout/manifest.tsv"
# A rank count below 1 is a config error on both sides of the socket: the
# client refuses --ranks=0, and a raw request with "ranks":0 gets an error
# response instead of reaching the --max-threads clamp's division (which
# once killed the daemon with SIGFPE).  The ping proves the daemon lives.
if ./build/examples/metaprep_cli daemon submit --socket="${DSOCK}" \
     --index="${REPORT_DIR}/idx.bin" --ranks=0 2>"${REPORT_DIR}/ranks0.err"; then
  echo "daemon smoke: client accepted --ranks=0"; exit 1
fi
grep -q '\[config\] --ranks' "${REPORT_DIR}/ranks0.err" \
  || { echo "daemon smoke: --ranks=0 not a config error: $(cat "${REPORT_DIR}/ranks0.err")"; exit 1; }
python3 - "${DSOCK}" "${REPORT_DIR}/idx.bin" <<'PYEOF'
import json, socket, sys

conn = socket.socket(socket.AF_UNIX)
conn.connect(sys.argv[1])
conn.sendall((json.dumps({"cmd": "submit", "index": sys.argv[2], "ranks": 0}) + "\n").encode())
resp = json.loads(conn.makefile().readline())
assert resp["ok"] is False and "[config]" in resp["error"], resp
PYEOF
./build/examples/metaprep_cli daemon ping --socket="${DSOCK}" >/dev/null \
  || { echo "daemon smoke: daemon died on a ranks=0 submit"; exit 1; }
# Deterministic queued-job cancel: pause dispatch so the worker never starts it.
./build/examples/metaprep_cli daemon pause --socket="${DSOCK}" >/dev/null
./build/examples/metaprep_cli daemon submit --socket="${DSOCK}" \
  --index="${REPORT_DIR}/idx.bin" --no-output >/dev/null
./build/examples/metaprep_cli daemon cancel --socket="${DSOCK}" --job=2 \
  | grep -q '"cancelled":true' || { echo "daemon smoke: cancel failed"; exit 1; }
./build/examples/metaprep_cli daemon resume --socket="${DSOCK}" >/dev/null
./build/examples/metaprep_cli daemon status --socket="${DSOCK}" --job=2 \
  | grep -q '"state":"cancelled"' \
  || { echo "daemon smoke: cancelled job not reported cancelled"; exit 1; }
./build/examples/metaprep_cli daemon shutdown --socket="${DSOCK}" >/dev/null
wait "${DPID}"
if kill -0 "${DPID}" 2>/dev/null; then
  echo "daemon smoke: leaked metaprepd process ${DPID}"; exit 1
fi
DPID=""
if [ -e "${DSOCK}" ]; then
  echo "daemon smoke: leaked socket file ${DSOCK}"; exit 1
fi
echo "daemon smoke: OK (submit/status/fetch/ranks=0/cancel/shutdown, no leaks)"

echo "=== tier 1: ThreadSanitizer build (test_obs + test_mpsim + test_dsu + test_differential + test_serve + test_indices) ==="
cmake --preset tsan
cmake --build --preset tsan "${JOBS}" --target test_obs test_mpsim test_dsu test_differential test_serve \
  test_indices

echo "=== tier 1: TSan test_obs ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
echo "=== tier 1: TSan test_mpsim ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mpsim
echo "=== tier 1: TSan test_dsu (parallel flatten adopt ctor) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_dsu
echo "=== tier 1: TSan differential binned-output legs (P2, parallel MergeCC tail) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_differential \
  --gtest_filter='OutputGrid/*P2*'
echo "=== tier 1: TSan packed read-store legs (threads over one shared in-memory arena) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_differential \
  --gtest_filter='Grid/*T2*Packed*'
echo "=== tier 1: TSan pass engine (golden W=1 pin + fusion-width agreement at k = 15/33/63 + sentinel-key k-mer) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_differential \
  --gtest_filter='GoldenW1.*:Differential.ModesAgree*:Differential.RealKmerAtSentinelKeyJoinsReads'
echo "=== tier 1: TSan parallel IndexCreate (per-thread merHist accumulators, cumulative rows) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_indices \
  --gtest_filter='IndexCreate.ParallelHistogramsMatchSequential:IndexCreate.MerHistIsColumnSumOfChunkHistograms'
echo "=== tier 1: TSan service layer (concurrent sessions + cancel + job queue) ==="
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve

echo "=== tier 1: ASan+UBSan build (test_faults + test_fastq + test_packed_store + test_sort + test_group + test_run_fields + compress legs) ==="
cmake --preset asan
cmake --build --preset asan "${JOBS}" --target test_faults test_fastq test_packed_store \
  test_superkmer test_differential test_indices test_sort test_group test_run_fields

echo "=== tier 1: ASan+UBSan test_faults (UBSan notes fail the gate) ==="
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_faults
echo "=== tier 1: ASan+UBSan test_run_fields (hostile run-field values, CLI and JSON) ==="
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_run_fields
echo "=== tier 1: ASan test_fastq ==="
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_fastq
echo "=== tier 1: ASan test_packed_store (sharded arena merge + packed scan bounds) ==="
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_packed_store
echo "=== tier 1: ASan test_indices (truncated + hostile index fixtures) ==="
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_indices
echo "=== tier 1: ASan test_sort (two-level radix sort bucket offsets) ==="
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_sort
echo "=== tier 1: ASan+UBSan test_group (LocalSort bucket scatter + LocalCC hash grouping) ==="
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_group
echo "=== tier 1: ASan exchange-compression (super-k-mer wire encode/decode) ==="
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_superkmer
ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_differential \
  --gtest_filter='CompressGrid/*'
echo "=== tier 1: ASan+UBSan pass engine (wire receive split, 64- and 128-bit keys, sentinel-key k-mer) ==="
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_differential \
  --gtest_filter='GoldenW1.*:Differential.ModesAgree*:Differential.RealKmerAtSentinelKeyJoinsReads'

echo "=== tier 1: bench guard (fig5 min-of-N vs BENCH_fig5.json) ==="
scripts/bench_guard.sh

echo "=== tier 1: PASS ==="
