#!/usr/bin/env python3
"""The repo benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload inl2_jobs1|serve_mixed \\
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  It builds the ifko library and the
perfbench driver from source (Release, into $CARGO_TARGET_DIR or
.bench_build), sets the workload up several times to take the median
set-up time, runs the workload, checks every output against
perfbench/expected/, appends a run record to .bench_runs/trajectory.jsonl
and prints the result as the last line of standard output.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from a separate traced run.  Exits nonzero when an output
is wrong or the benchmark cannot run.  See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
# Set-up-only launches per run; the measured process is one more sample.
SETUP_LAUNCHES = 8
# A set-up launch takes well under a second; a run, its --seconds plus
# checks.  Past these the driver is taken to hang and is killed.
SETUP_TIMEOUT_S = 60
RUN_SLACK_S = 60
OPTIMIZED = ("Release", "RelWithDebInfo")


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise benchlib.BenchError("no src/ beside perfbench/: nothing to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise benchlib.BenchError("build failed: %s" % " ".join(cmd))
    return build_dir / "perfbench"


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def launch(binary, mode, args, run_dir, tag):
    """Runs the driver once; returns (records, set-up seconds, exit code),
    the exit code None when it hung and was killed."""
    out = run_dir / ("%s.jsonl" % tag)
    tmp = run_dir / ("tmp-%s" % tag)
    tmp.mkdir(parents=True)
    # Paths relative to the checkout root (the driver's working directory)
    # keep the daemon's Unix socket path short wherever the checkout lives.
    cmd = [str(binary), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out.relative_to(ROOT)),
           "--tmp", str(tmp.relative_to(ROOT))]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else args.seconds + RUN_SLACK_S
    spawned = time.monotonic_ns()
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, cwd=ROOT).returncode
    except subprocess.TimeoutExpired:  # killed and reaped by subprocess.run
        rc = None
    shutil.rmtree(tmp, ignore_errors=True)
    records = read_records(out) if out.exists() else []
    setup = [r for r in records if r["type"] == "setup"]
    if not setup:
        raise benchlib.BenchError("%s %s never finished set-up (exit %s)" %
                                  (mode, tag, rc))
    return records, (setup[0]["done_ns"] - spawned) / 1e9, rc


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run(args):
    binary = build()
    expected_path = BENCH / "expected" / ("%s.jsonl" % args.workload)
    with open(expected_path) as f:
        expected = benchlib.load_expected(f)
    run_dir = RUNS / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed,
                                                  args.trace, os.getpid()))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    setups, setup_s = [], []

    def set_up(i):
        recs, secs, rc = launch(binary, "setup", args, run_dir, "setup%d" % i)
        if rc != 0:
            raise benchlib.BenchError("set-up launch exited %s" % rc)
        setups.append(recs)
        setup_s.append(secs)

    # Half the set-up launches run before the measured run and half after,
    # so their median spans the host's conditions over the whole run.
    launches = 0 if args.trace else SETUP_LAUNCHES
    for i in range(launches // 2):
        set_up(i)
    main, secs, rc = launch(binary, "run", args, run_dir, "run")
    setups.append(main)
    setup_s.append(secs)
    for i in range(launches // 2, launches):
        set_up(i)

    attempted, failed, problems = benchlib.check_run(main, expected)
    for p in problems[:20]:
        log("output check: %s" % p)
    if rc != 0:
        # A crash, a hang or a replay mismatch is one more failed
        # operation; the metrics come from what completed before it.
        log("driver hung and was killed" if rc is None else
            "driver exited %d" % rc)
        failed += 1
        attempted += 1
    if attempted == 0:
        raise benchlib.BenchError("no checked outputs")

    if args.trace:
        spans = read_records(run_dir / "run.jsonl.spans.jsonl")
        values = benchlib.per_layer(args.workload, main, spans, attempted, failed)
        catalogue = benchlib.PER_LAYER
    else:
        values = benchlib.end_to_end(args.workload, main, setups, setup_s)
        catalogue = benchlib.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in catalogue.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    meta = benchlib.of_type(main, "meta")[0]
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": commit(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "build_type": meta["build_type"],
        "compiler": meta["compiler"], "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result,
    }
    if meta["build_type"] not in OPTIMIZED:
        record["warning"] = "build type %r is not optimized" % meta["build_type"]
        log("WARNING: %s" % record["warning"])
    with open(RUNS / "trajectory.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        log("spans: %s" % (run_dir / "run.jsonl.spans.jsonl"))
    log("seed %d, %s build, %s: %d/%d outputs checked wrong" %
        (args.seed, meta["build_type"], meta["compiler"], failed, attempted))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return run(args)
    except (benchlib.BenchError, OSError, subprocess.TimeoutExpired,
            KeyError, ValueError, ZeroDivisionError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
