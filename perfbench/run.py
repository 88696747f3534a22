#!/usr/bin/env python3
"""Build and run the METAPREP benchmark driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload xl-raw --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which pulls in the repository's libraries from src/)
under .bench_build/, runs one workload, and passes the driver's output
through.  The last stdout line is the driver's JSON result.  Every result
is also appended to .bench_build/perfbench-results.jsonl; when an earlier
result for the same workload and trace mode exists, the metrics of the
result line are compared with it if the host fingerprints match, and the
run is reported as a new host otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RESULTS = os.path.join(BUILD, "perfbench-results.jsonl")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Run a build step, echoing its output to stderr; exit on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.exists(os.path.join(HERE, "..", "src")):
        fail("no METAPREP sources next to " + HERE)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", CMAKE_DIR], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S)


def compare(record, names):
    """Lines comparing the @names metrics of @record with the previous
    result of the same workload and trace mode."""
    previous = None
    if os.path.exists(RESULTS):
        with open(RESULTS) as f:
            for line in f:
                try:
                    r = json.loads(line)
                except ValueError:
                    continue
                if r.get("workload") == record["workload"] and r.get("trace") == record["trace"]:
                    previous = r
    if previous is None:
        return ["comparison: first result for this workload"]
    if previous.get("host") != record["host"]:
        return ["comparison: new host (fingerprint differs from the previous result); "
                "no comparison"]
    lines = ["comparison with the previous result (seed %s):" % previous.get("seed")]
    for name in names:
        old = previous["metrics"].get(name, {}).get("value")
        new = record["metrics"].get(name, {}).get("value")
        if old is None or new is None:
            continue
        change = (new - old) / old * 100 if old else float("nan")
        lines.append("  %-22s %12.6g -> %12.6g  (%+.1f%%)" % (name, old, new, change))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # keep every scratch file in the checkout
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail("driver exited with code %d" % proc.returncode)

    result_line = lines[-1]
    result = json.loads(result_line)  # must be valid JSON before it is passed on
    record = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
    if record is not None:
        for line in compare(record, result["metrics"]):
            print(line)
        with open(RESULTS, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(result_line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
