#!/usr/bin/env bash
# Performance guard for the single-node bench (Figure 5).
#
# Runs bench_fig5_singlenode BENCH_GUARD_RUNS times (min-of-N wall time per
# configuration, which filters scheduler noise), writes the distilled result
# to BENCH_fig5.json at the repo root, and fails when:
#
#   * any configuration's min wall time regressed more than 10% (plus a
#     small absolute slack for sub-millisecond rows) against the committed
#     BENCH_fig5.json baseline, or
#   * the pipelined scheduler stopped paying for itself: on the passes=2 A/B
#     rows, overlap must not be > 5% slower than barrier; the achieved wall
#     margin is always recorded in the baseline as "overlap_margin", and the strict
#     ">= 10% faster" wall gate is opt-in via METAPREP_GATE_OVERLAP_RATIO=1
#     because the ~60 ms A/B walls drift 5-17% with host scheduler state at
#     identical code (see invariant 1 below), or
#   * the packed read store stopped paying for itself: on the XL-mini
#     passes=2 read-store rows, packed must beat text on the *read path* —
#     min-of-all-samples (PackedIngest + KmerGen-I/O + KmerGen), i.e. the
#     steps the read store actually touches.  Gating the read-path sum
#     instead of total wall keeps LocalSort/LocalCC scheduler noise (which
#     dwarfs the parse savings in absolute terms) from flipping the verdict;
#     the bench also times each store three times per process, interleaved,
#     so N runs yield 3N samples per store.  The comparison carries a 2%
#     noise allowance: host-load drift between samples is ~3% here while a
#     real regression (the per-pass text re-parse coming back) costs >8% on
#     this path, so the slack kills false failures without masking true
#     ones — and the structural check below (KmerGen-I/O == 0) is
#     noise-free.  The packed run must additionally report a nonzero
#     PackedIngest inside the measured wall.  The achieved read-path margin
#     is recorded as "packed_margin" in the baseline (wall mins stay
#     recorded per row).
#
#   * (opt-in, METAPREP_GATE_COMM_BYTES=1) the compressed exchange stopped
#     paying for itself: on the XL-mini P=4 comm rows,
#     --comm-compress=superkmer must ship >= 30% fewer alltoallv bytes than
#     none.  The achieved
#     reduction is always recorded in the baseline as "comm_bytes_reduction";
#     the byte counters are deterministic, so this invariant is noise-free.
#
# Regenerate the committed baseline with METAPREP_BENCH_UPDATE=1.
#
# Env knobs:
#   BENCH_GUARD_RUNS    repetitions for min-of-N (default 5; acceptance: 12)
#   BENCH_GUARD_BIN     bench binary (default ./build/bench/bench_fig5_singlenode)
#   METAPREP_BENCH_UPDATE=1  rewrite BENCH_fig5.json instead of comparing
#   METAPREP_GATE_COMM_BYTES=1  harden the >= 30% comm-byte reduction gate
#   METAPREP_GATE_OVERLAP_RATIO=1  harden the >= 10% overlap-vs-barrier gate
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${BENCH_GUARD_RUNS:-5}"
BIN="${BENCH_GUARD_BIN:-./build/bench/bench_fig5_singlenode}"
BASELINE="BENCH_fig5.json"

if [[ ! -x "${BIN}" ]]; then
  echo "bench_guard: building ${BIN}" >&2
  cmake --build build --target bench_fig5_singlenode -j"$(nproc)"
fi

TMP_JSON="$(mktemp /tmp/bench_guard.XXXXXX.json)"
trap 'rm -f "${TMP_JSON}"' EXIT

echo "=== bench_guard: ${RUNS} x ${BIN} ==="
for i in $(seq "${RUNS}"); do
  METAPREP_BENCH_JSON="${TMP_JSON}" "${BIN}" >/dev/null
done

METAPREP_BENCH_UPDATE="${METAPREP_BENCH_UPDATE:-0}" \
python3 - "${TMP_JSON}" "${BASELINE}" <<'PYEOF'
import json, os, sys

tmp_json, baseline_path = sys.argv[1], sys.argv[2]
update = os.environ.get("METAPREP_BENCH_UPDATE") == "1"

# One JSON object per bench emit() per run; key rows by (mode, passes, threads).
# Besides total wall, the merge/output tail phases (MergeCC flatten,
# Merge-Comm label scatter, CC-I/O) are tracked min-of-N and gated too.
PHASES = ("mergecc_s", "merge_comm_s", "ccio_s")
# Read-store axis extras: recorded min-of-N next to the walls, gated by the
# packed invariants below (not by the 10% phase-regression rule).  The
# derived read_path_s (sum of the three per row) is what the packed-vs-text
# comparison gates on.
RS_FIELDS = ("kmergen_io_s", "kmergen_s", "packed_ingest_s")
# Critical-path attribution from the traced A/B repeats is *recorded* next to
# the wall times (so BENCH_fig5.json shows where the time went) but never
# gated: the traced run is separate from the timed one.
CRIT = ("crit_path_s", "crit_wait_s", "crit_compute_s")
# Comm axis extras: the exchange byte counters are deterministic for a fixed
# dataset/config, so min-of-N is just dedup.  The derived reduction is
# recorded in the baseline every run; the >= 30% gate is opt-in via
# METAPREP_GATE_COMM_BYTES=1 (invariant 1c below).
COMM = ("alltoallv_bytes", "alltoallv_bytes_raw", "superkmer_records")
mins = {}
phase_mins = {}
crit_mins = {}
rs_mins = {}
comm_vals = {}
with open(tmp_json) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj.get("bench") != "fig5_singlenode":
            continue
        for row in obj["rows"]:
            key = (row["mode"], int(row["passes"]), int(row["threads"]))
            wall = float(row["wall_s"])
            mins[key] = min(mins.get(key, wall), wall)
            for ph in PHASES:
                if ph in row:
                    v = float(row[ph])
                    cur = phase_mins.setdefault(key, {})
                    cur[ph] = min(cur.get(ph, v), v)
            for c in CRIT:
                if c in row:
                    v = float(row[c])
                    cur = crit_mins.setdefault(key, {})
                    cur[c] = min(cur.get(c, v), v)
            for rf in RS_FIELDS:
                if rf in row:
                    v = float(row[rf])
                    cur = rs_mins.setdefault(key, {})
                    cur[rf] = min(cur.get(rf, v), v)
            if all(rf in row for rf in RS_FIELDS):
                rp = sum(float(row[rf]) for rf in RS_FIELDS)
                cur = rs_mins.setdefault(key, {})
                cur["read_path_s"] = min(cur.get("read_path_s", rp), rp)
            for cf in COMM:
                if cf in row:
                    v = int(row[cf])
                    cur = comm_vals.setdefault(key, {})
                    cur[cf] = min(cur.get(cf, v), v)

if not mins:
    sys.exit("bench_guard: no fig5_singlenode rows captured")

result = {
    "bench": "fig5_singlenode",
    "min_of": int(os.environ.get("BENCH_GUARD_RUNS", "5")),
    "rows": [
        {"mode": m, "passes": p, "threads": t, "wall_s": w}
        | {ph: v for ph, v in sorted(phase_mins.get((m, p, t), {}).items())}
        | {c: v for c, v in sorted(crit_mins.get((m, p, t), {}).items())}
        | {rf: v for rf, v in sorted(rs_mins.get((m, p, t), {}).items())}
        | {cf: v for cf, v in sorted(comm_vals.get((m, p, t), {}).items())}
        for (m, p, t), w in sorted(mins.items())
    ],
}

failures = []

# Invariant 1: the overlap scheduler pays for itself on the A/B rows.  A
# lenient wall floor (overlap must not be > 5% SLOWER than barrier) is
# unconditional.  The
# strict ">= 10% faster" wall gate is opt-in via METAPREP_GATE_OVERLAP_RATIO=1
# (acceptance runs on a quiet host): the A/B walls are ~60 ms on this
# oversubscribed single core, and the measured margin at *identical code*
# drifts 5-17% with host scheduler state, so a hard 10% line flips on host
# drift, not regressions.  The achieved margin is always recorded in the
# baseline as "overlap_margin" so drift stays visible.
ab = {m: w for (m, p, t), w in mins.items() if p == 2}
if "barrier" in ab and "overlap" in ab:
    result["overlap_margin"] = round(1.0 - ab["overlap"] / ab["barrier"], 4)
    if ab["overlap"] > 1.05 * ab["barrier"]:
        failures.append(
            f"overlap scheduler is >5% slower than barrier at S=2: "
            f"barrier={ab['barrier']:.4f}s overlap={ab['overlap']:.4f}s"
        )
    if os.environ.get("METAPREP_GATE_OVERLAP_RATIO") == "1" and \
            ab["overlap"] > 0.90 * ab["barrier"]:
        failures.append(
            f"overlap no longer >=10% faster than barrier at S=2: "
            f"barrier={ab['barrier']:.4f}s overlap={ab['overlap']:.4f}s"
        )
else:
    failures.append("missing barrier/overlap passes=2 rows in bench output")

# Invariant 1b: the packed read store pays for itself on the XL-mini S=2
# read-store rows, and actually eliminated the per-pass text parse.  The
# comparison is on the read path (PackedIngest + KmerGen-I/O + KmerGen):
# the steps the store touches, where the win is structural — gating total
# wall would let LocalSort scheduler noise (10x the parse cost) decide.
# The bench emits three interleaved samples per store per process and
# same-key rows share one min, so this is a min over 3N samples each way.
# RS_SLACK absorbs host-load drift between batches (~3% observed); a true
# regression (per-pass re-parse back in the wall) costs >8% on this path.
RS_SLACK = 1.02
rs = {m: w for (m, p, t), w in mins.items() if m in ("text", "packed") and p == 2}
if "text" in rs and "packed" in rs:
    packed_key = next(k for k in mins if k[0] == "packed")
    text_key = next(k for k in mins if k[0] == "text")
    rp_text = rs_mins.get(text_key, {}).get("read_path_s")
    rp_packed = rs_mins.get(packed_key, {}).get("read_path_s")
    if rp_text is None or rp_packed is None:
        failures.append("read-store rows lack read-path step fields")
    else:
        if rp_packed >= rp_text * RS_SLACK:
            failures.append(
                f"packed read store no longer beats text on the S=2 read path: "
                f"text={rp_text:.4f}s packed={rp_packed:.4f}s "
                f"(walls: text={rs['text']:.4f}s packed={rs['packed']:.4f}s)"
            )
        result["packed_margin"] = round(1.0 - rp_packed / rp_text, 4)
    if rs_mins.get(packed_key, {}).get("kmergen_io_s", 1.0) != 0.0:
        failures.append("packed run still reports KmerGen-I/O > 0 (text re-parse alive)")
    if rs_mins.get(text_key, {}).get("kmergen_io_s", 0.0) <= 0.0:
        failures.append("text run reports KmerGen-I/O == 0 (axis mislabeled?)")
    if rs_mins.get(packed_key, {}).get("packed_ingest_s", 0.0) <= 0.0:
        failures.append("packed run reports PackedIngest == 0 (arena outside the wall?)")
else:
    failures.append("missing text/packed passes=2 read-store rows in bench output")

# Invariant 1c: exchange compression ships >= 30% fewer alltoallv bytes than
# the uncompressed wire on the XL-mini P=4 comm rows.  The achieved
# reduction is recorded in the baseline ("comm_bytes_reduction") on every
# run; the hard gate is opt-in (METAPREP_GATE_COMM_BYTES=1) while the
# invariant beds in, so a machine can re-baseline before it hardens.
gate_comm = os.environ.get("METAPREP_GATE_COMM_BYTES") == "1"
comm_none = comm_vals.get(("comm_none", 2, 2), {})
comm_sk = comm_vals.get(("comm_superkmer", 2, 2), {})
if comm_none.get("alltoallv_bytes") and comm_sk.get("alltoallv_bytes") is not None:
    reduction = 1.0 - comm_sk["alltoallv_bytes"] / comm_none["alltoallv_bytes"]
    result["comm_bytes_reduction"] = round(reduction, 4)
    print(f"  comm axis: none={comm_none['alltoallv_bytes']}B "
          f"superkmer={comm_sk['alltoallv_bytes']}B reduction={reduction:.1%}"
          + ("" if gate_comm else " (recorded, not gated)"))
    if gate_comm:
        if reduction < 0.30:
            failures.append(
                f"comm compression ships only {reduction:.1%} fewer bytes "
                f"(need >= 30%): none={comm_none['alltoallv_bytes']} "
                f"superkmer={comm_sk['alltoallv_bytes']}"
            )
        if comm_sk.get("superkmer_records", 0) <= 0:
            failures.append("comm_superkmer run reported superkmer_records == 0")
elif gate_comm:
    failures.append("missing comm_none/comm_superkmer passes=2 rows in bench output")

# Invariant 2: no config regressed > 10% (+0.02 s absolute slack for tiny
# rows) against the committed baseline.
if update:
    with open(baseline_path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"bench_guard: baseline {baseline_path} updated")
elif os.path.exists(baseline_path):
    with open(baseline_path) as f:
        base = json.load(f)
    base_rows = {
        (r["mode"], int(r["passes"]), int(r["threads"])): float(r["wall_s"])
        for r in base["rows"]
    }
    base_phases = {
        (r["mode"], int(r["passes"]), int(r["threads"])): {
            ph: float(r[ph]) for ph in PHASES if ph in r
        }
        for r in base["rows"]
    }
    for key, wall in sorted(mins.items()):
        if key not in base_rows:
            continue
        limit = base_rows[key] * 1.10 + 0.02
        if wall > limit:
            failures.append(
                f"regression at mode={key[0]} passes={key[1]} threads={key[2]}: "
                f"{wall:.4f}s > limit {limit:.4f}s (baseline {base_rows[key]:.4f}s)"
            )
        # Phase walls get a larger absolute slack: sub-millisecond phases
        # jitter with the scheduler, so only a real blow-up should trip.
        for ph, base_v in base_phases.get(key, {}).items():
            v = phase_mins.get(key, {}).get(ph)
            if v is None:
                continue
            ph_limit = base_v * 1.10 + 0.02
            if v > ph_limit:
                failures.append(
                    f"phase regression at mode={key[0]} passes={key[1]} "
                    f"threads={key[2]} {ph}: {v:.4f}s > limit {ph_limit:.4f}s "
                    f"(baseline {base_v:.4f}s)"
                )
else:
    failures.append(
        f"no committed baseline {baseline_path}; run METAPREP_BENCH_UPDATE=1 "
        "scripts/bench_guard.sh and commit it"
    )

for key, wall in sorted(mins.items()):
    print(f"  mode={key[0]:8s} passes={key[1]} threads={key[2]:2d}  min wall {wall:.4f}s")

if failures:
    print("bench_guard: FAIL", file=sys.stderr)
    for f_ in failures:
        print("  " + f_, file=sys.stderr)
    sys.exit(1)
print("bench_guard: PASS")
PYEOF
