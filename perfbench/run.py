#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver from source and runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cold_drill --seed 1 --seconds 20 --trace 0
      One run. The driver's report goes to stdout; its last line is the
      result JSON ({"correct", "attempted", "failed", "metrics"}). The run's
      record, with its fingerprint, is written to
      .perfbench/results/<source id>/<workload>-seed<N>-trace<T>.json, where
      the source id is a digest of src/ and perfbench/, so runs of two
      versions of the program land in two directories.
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
      Every workload of BENCHMARK.json in turn; non-zero exit on any
      correctness mismatch.
  python3 perfbench/run.py --compare BASE NEW
      Compares two sets of records (files or directories of them, e.g. two
      .perfbench/results/<source id> directories) metric by metric against
      the bounds in BENCHMARK.json, per workload and trace setting. Refuses
      (exit 3) when the records' host fingerprints differ. A metric whose
      spread on either side is wider than its bound, or that has fewer than
      MIN_RECORDS records on a side, is reported as unresolved, not judged.
  python3 perfbench/run.py --self-check [--seconds S]
      Runs the quantile oracle test, then checks that a driver-side
      busy-wait of 15% of the median cold_drill operation time is flagged as
      a regression by the benchmark's own bounds, over SELF_CHECK_PAIRS
      paired runs.

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; records, Chrome traces and scratch stores go to .perfbench/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Fingerprint fields that must match before two results are compared: the
# host and build, and how long a run measures. Seed, commit and sources
# identify a run; they are expected to differ between the sides of a
# comparison. Records are compared per (workload, trace).
HOST_FIELDS = ("nproc", "compiler", "build_type", "seconds")
# A side of a comparison needs this many records before its spread, and so
# a verdict, means anything.
MIN_RECORDS = 3
# Paired runs (with and without the injected delay) in the self-check.
SELF_CHECK_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(targets=("perfbench_driver",)):
    """Configures (once) and builds the driver; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources (src/CMakeLists.txt) next to "
            "perfbench/; run from the root of a full checkout")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr, cwd=ROOT)
    return bdir


def cmake_cache(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def git_commit():
    """The git commit of the checkout, or "" outside git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return ""


def source_digest():
    """A digest of the sources the driver is built from (documentation
    aside)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(n for n in filenames
                               if not n.endswith(".md")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def fingerprint(bdir, workload, seed, seconds, trace):
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "commit": git_commit() or "none",
        "sources": source_digest(),
    }


def run_one(bdir, workload, seed, seconds, trace, busy_wait_ms=0.0,
            echo=True):
    """Runs the driver once; returns (exit code, record or None). The record
    of a run without injected delay is kept under .perfbench/results/."""
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--out-dir", OUT_DIR]
    if busy_wait_ms > 0:
        cmd += ["--busy-wait-ms", repr(busy_wait_ms)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    rc = proc.returncode
    if result is not None and os.path.isfile(SPEC_PATH):
        problem = metric_mismatch(result, trace, load_spec())
        if problem:
            log("perfbench: %s" % problem)
            rc = rc or 1
    record = None
    fp = fingerprint(bdir, workload, seed, seconds, trace)
    if result is not None:
        record = {"fingerprint": fp, "busy_wait_ms": busy_wait_ms,
                  "result": result}
    if record is not None and not busy_wait_ms:
        rdir = os.path.join(OUT_DIR, "results", fp["sources"])
        os.makedirs(rdir, exist_ok=True)
        name = "%s-seed%s-trace%s.json" % (workload, seed, trace)
        with open(os.path.join(rdir, name), "w") as f:
            json.dump(record, f, indent=1)
    if echo:
        for line in lines[:-1]:
            print(line)
        print("fingerprint " + json.dumps(fp, sort_keys=True))
        if lines:
            print(lines[-1])
        sys.stdout.flush()
    return rc, record


def metric_mismatch(result, trace, spec):
    """Why the result's metrics differ from BENCHMARK.json's list, or None."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        return "metrics %s differ from BENCHMARK.json %s" % (
            sorted(set(got.items()) ^ set(want.items())), "per_layer"
            if trace else "end_to_end")
    return None


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_records(path):
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if n.endswith(".json")]
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def host_key(record):
    fp = record["fingerprint"]
    return tuple((k, fp.get(k)) for k in HOST_FIELDS)


def spread(values):
    """Quartile distance over the median; None below MIN_RECORDS values."""
    if len(values) < MIN_RECORDS:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(base, new, spec):
    """Per-workload, per-metric median comparison against the bounds.

    Returns (regressions, report lines); raises ValueError when the two
    sides hold results with different host fingerprints. A bounded metric
    is unresolved, not judged, when a side has too few records to know its
    spread or spreads wider than the bound.
    """
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    keys = {host_key(r) for r in base + new}
    if len(keys) > 1:
        raise ValueError("fingerprints differ: %s" % sorted(keys))
    lines = []
    regressions = []

    def group(r):
        return r["fingerprint"]["workload"], r["fingerprint"]["trace"]

    for w, trace in sorted({group(r) for r in base + new}):
        b = [r for r in base if group(r) == (w, trace)]
        n = [r for r in new if group(r) == (w, trace)]
        if not b or not n:
            continue
        names = sorted(set(b[0]["result"]["metrics"]) &
                       set(n[0]["result"]["metrics"]))
        for name in names:
            bvals = [r["result"]["metrics"][name]["value"] for r in b]
            nvals = [r["result"]["metrics"][name]["value"] for r in n]
            bv, nv = statistics.median(bvals), statistics.median(nvals)
            spec_m = bounds.get(name)
            change = (nv - bv) / bv if bv else 0.0
            verdict = "info"
            if spec_m is not None:
                spreads = (spread(bvals), spread(nvals))
                worse = change if spec_m["better"] == "lower" else -change
                if None in spreads:
                    verdict = "unresolved (fewer than %d records)" % MIN_RECORDS
                elif max(spreads) > spec_m["bound"]:
                    verdict = "unresolved (spread %.2f > bound %.2f)" % (
                        max(spreads), spec_m["bound"])
                elif worse > spec_m["bound"]:
                    verdict = "REGRESSION"
                    regressions.append((w, name, change))
                else:
                    verdict = "ok"
            lines.append("%-13s t%d %-16s base %-12.6g new %-12.6g %+7.1f%%  %s"
                         % (w, trace, name, bv, nv, 100 * change, verdict))
    return regressions, lines


def self_check(seconds):
    bdir = build(("perfbench_driver", "quantiles_test"))
    rc = subprocess.run([os.path.join(bdir, "quantiles_test")]).returncode
    if rc != 0:
        log("self-check: quantile oracle test failed")
        return 1
    spec = load_spec()

    def cold_drill(seed, delay_ms, trace=0):
        rc, rec = run_one(bdir, "cold_drill", seed, seconds, trace,
                          busy_wait_ms=delay_ms, echo=False)
        if rc != 0 or rec is None or not rec["result"]["correct"]:
            raise RuntimeError("cold_drill run failed (seed %d)" % seed)
        return rec

    try:
        # op_p50_ms is a per-layer metric: a traced run reports it.
        calib = cold_drill(100, 0.0, trace=1)
        p50 = calib["result"]["metrics"]["op_p50_ms"]["value"]
        delay_ms = 0.15 * p50
        log("self-check: busy-wait %.3f ms = 15%% of op_p50_ms %.3f" %
            (delay_ms, p50))
        # Pairs on the same seed, alternating which side runs first.
        base, slow = [], []
        for i, seed in enumerate(range(101, 101 + SELF_CHECK_PAIRS)):
            for delay in ((0.0, delay_ms) if i % 2 == 0 else (delay_ms, 0.0)):
                (slow if delay else base).append(cold_drill(seed, delay))
    except RuntimeError as e:
        log("self-check: %s" % e)
        return 1
    regressions, lines = compare(base, slow, spec)
    for line in lines:
        print(line)
    if regressions:
        print("self-check: the injected delay is flagged (%s)" %
              ", ".join(name for _, name, _ in regressions))
        return 0
    print("self-check: FAILED - a 15% delay per operation was not flagged")
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if args.compare:
        spec = load_spec()
        try:
            regressions, lines = compare(load_records(args.compare[0]),
                                         load_records(args.compare[1]), spec)
        except ValueError as e:
            print("incomparable: %s" % e)
            return 3
        for line in lines:
            print(line)
        return 1 if regressions else 0

    if args.seconds is None:
        args.seconds = (load_spec()["run_seconds"]
                        if os.path.isfile(SPEC_PATH) else 10)
    if args.self_check:
        return self_check(args.seconds)

    if args.all:
        workloads = [w["name"] for w in load_spec()["workloads"]]
    elif args.workload:
        workloads = [args.workload]
    else:
        ap.error("give --workload, --all, --compare or --self-check")
    bdir = build()
    status = 0
    for w in workloads:
        rc, _ = run_one(bdir, w, args.seed, args.seconds, args.trace)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
