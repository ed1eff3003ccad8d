"""The benchmark's own logic: metric catalogue, statistics, output checks.

run.py drives the build and the perfbench process; everything here is
pure Python over the process's raw JSON-lines records, so
test_benchlib.py can hold it without a build.
"""

import json
import math
import re
import statistics

WORKLOADS = ("inl2_jobs1", "serve_mixed")
TUNE_WORKLOADS = ("inl2_jobs1",)

# name -> (unit, better).  Printed with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tune_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "query_us_p50": ("us", "lower"),
    "query_us_p99": ("us", "lower"),
    "tune_miss_ms_p50": ("ms", "lower"),
}

# name -> (unit, better).  Printed with --trace 1.
PER_LAYER = {
    "sim.cosim_ms": ("ms", "lower"),
    "sim.minsts_per_s": ("Minst/s", "higher"),
    "sim.functional_minsts_per_s": ("Minst/s", "higher"),
    "sim.timing_share": ("ratio", "lower"),
    "sim.decode_us": ("us", "lower"),
    "sim.cycles": ("cycles", "lower"),
    "sim.dyn_insts": ("count", "lower"),
    "sim.mem.loads": ("count", "lower"),
    "sim.mem.load_miss_mem": ("count", "lower"),
    "sim.mem.hw_prefetches": ("count", "lower"),
    "sim.mem.pref_dropped": ("count", "lower"),
    "sim.mem.bus_bytes": ("B", "lower"),
    "sim.core.mispredicts": ("count", "lower"),
    "hil.parse_us": ("us", "lower"),
    "fko.lower_us": ("us", "lower"),
    "fko.analyze_us": ("us", "lower"),
    "fko.full_compile_us": ("us", "lower"),
    "fko.full_compile_ur64_us": ("us", "lower"),
    "search.pipeline.compile_us": ("us", "lower"),
    "search.pipeline.full_compiles": ("count", "lower"),
    "search.pipeline.prefix_patches": ("count", "higher"),
    "search.pipeline.memo_hits": ("count", "higher"),
    "search.pipeline.reuse_ratio": ("ratio", "higher"),
    "kernels.tester_us": ("us", "lower"),
    "kernels.tester_runs": ("count", "lower"),
    "search.kernel_ms_p50": ("ms", "lower"),
    "search.kernel_ms_max": ("ms", "lower"),
    "search.evals": ("count", "lower"),
    "search.proposals": ("count", "lower"),
    "search.dedup_hit_ratio": ("ratio", "higher"),
    "search.cpu_per_wall": ("ratio", "higher"),
    "search.pool.speedup": ("ratio", "higher"),
    "search.unattributed_share": ("ratio", "lower"),
    "search.evalcache.lookup_us": ("us", "lower"),
    "search.evalcache.insert_us": ("us", "lower"),
    "wisdom.find_us": ("us", "lower"),
    "wisdom.record_us": ("us", "lower"),
    "wisdom.save_ms": ("ms", "lower"),
    "wisdom.records": ("count", "higher"),
    "serve.handle_query_us": ("us", "lower"),
    "serve.handle_tune_ms": ("ms", "lower"),
    "serve.wire_us": ("us", "lower"),
    "serve.wait_us_p99": ("us", "lower"),
    "loadgen.late_us_p99": ("us", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The spans whose time is a step of the search's own evaluation path; what
# process CPU the batch spent outside them is "unattributed".
ATTRIBUTED_SPANS = ("search.pipeline.build", "search.pipeline.data",
                    "search.pipeline.compile", "kernels.tester", "sim.cosim")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# --- statistics ------------------------------------------------------------

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(count):
    """The highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of `values`."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p99(values, what):
    """The 99th percentile, refused unless the sample is big enough for it
    under the tail rule."""
    top = tail_percentile(len(values))
    if top is None or top < 99.0:
        raise BenchError("%s: %d samples cannot support a p99 (the tail "
                         "rule allows p%s)" % (what, len(values), top))
    return percentile(values, 99.0)


def median(values, what):
    if not values:
        raise BenchError("%s: no samples" % what)
    return statistics.median(values)


# --- output checks ---------------------------------------------------------

def load_expected(lines):
    """Expected records keyed by (kernel, machine, context, n)."""
    out = {}
    for line in lines:
        line = line.strip()
        if line:
            rec = json.loads(line)
            out[(rec["kernel"], rec["machine"], rec["context"], rec["n"])] = rec
    return out


def _same_result(got, want):
    problems = []
    for field in ("params", "best_cycles", "default_cycles"):
        if got.get(field) != want[field]:
            problems.append("%s %r != expected %r" %
                            (field, got.get(field), want[field]))
    return problems


def check_kernel(rec, expected):
    """Problems with one tuned kernel ("kernel" or "seed_tune" record)."""
    key = (rec["kernel"], rec["machine"], rec["context"], rec["n"])
    if not rec["ok"]:
        return ["failed"]
    if rec.get("quarantined"):
        return ["quarantined"]
    problems = []
    if rec.get("match", "tuned") != "tuned":
        problems.append("match %r != 'tuned'" % rec.get("match"))
    if not rec["reference_ok"]:
        problems.append("winner fails the reference check")
    if key not in expected:
        return problems + ["no expected record for %s" % (key,)]
    return problems + _same_result(rec, expected[key])


MACHINE = {"p4e": "P4E", "opteron": "Opteron"}
CONTEXT = {"ooc": "out-of-cache", "inl2": "in-L2"}


def check_request(rec, expected):
    """Problems with one served request.  QUERYs must answer from wisdom,
    with no evaluations, the expected winner of their kernel's set-up key
    (the only record in their N-class, or the nearest class for "near");
    fresh-key TUNEs must tune, and their winner must pass the reference
    check (its exact value depends on which wisdom warm-started it, so it
    has no fingerprint)."""
    if not rec["answered"]:
        return ["no response"]
    if not rec["ok"]:
        return ["ok:false"]
    want_match = {"exact": "exact", "near": "near-n", "tune": "tuned"}[rec["kind"]]
    problems = []
    if rec["match"] != want_match:
        problems.append("match %r != %r" % (rec["match"], want_match))
    if rec["kind"] == "tune":
        if rec["evaluations"] <= 0:
            problems.append("TUNE ran no evaluations")
        if not 0 < rec["best_cycles"] <= rec["default_cycles"]:
            problems.append("best %s not within (0, default %s]" %
                            (rec["best_cycles"], rec["default_cycles"]))
        if not rec.get("reference_ok", False):
            problems.append("winner fails the reference check")
        return problems
    if rec["evaluations"] != 0:
        problems.append("QUERY ran %s evaluations" % rec["evaluations"])
    key = (rec["kernel"], MACHINE[rec["arch"]], CONTEXT[rec["context"]])
    matches = [want for k, want in expected.items() if k[:3] == key]
    if len(matches) != 1:
        return problems + ["no single expected record for %s" % (key,)]
    return problems + _same_result(rec, matches[0])


def check_run(records, expected):
    """(attempted, failed, problems) over every checked output of a run."""
    attempted = failed = 0
    problems = []
    for rec in records:
        if rec["type"] in ("kernel", "seed_tune"):
            issues = check_kernel(rec, expected)
            what = "%s %s" % (rec["kernel"], rec["machine"])
        elif rec["type"] == "request":
            issues = check_request(rec, expected)
            what = "%s %s %s n=%s" % (rec["kind"], rec["kernel"], rec["arch"],
                                      rec["n"])
        else:
            continue
        attempted += 1
        if issues:
            failed += 1
            problems.append("%s: %s" % (what, "; ".join(issues)))
    return attempted, failed, problems


# --- metrics ---------------------------------------------------------------

def of_type(records, kind, phase=None):
    return [r for r in records if r["type"] == kind and
            (phase is None or r.get("phase") == phase)]


def latencies(requests, kinds):
    """Open-loop latency of each answered request, from its due time."""
    return [r["recv_ns"] - r["due_ns"] for r in requests
            if r["kind"] in kinds and r["answered"]]


def end_to_end(workload, main, setups, setup_s_samples):
    """Every END_TO_END metric of one untraced run.  `main` is the measured
    process's records, `setups` every process's records (set-up launches
    and main), `setup_s_samples` the set-up times of all of them."""
    m = {"setup_s": median(setup_s_samples, "setup_s")}
    if workload in TUNE_WORKLOADS:
        # A tune sample is one 14-kernel tuneAll batch past the warm-up.
        samples = of_type(main, "batch", "measure")
        timed = {r["batch"] for r in samples}
        kernel_ms = [r["wall_ns"] / 1e6 for r in of_type(main, "kernel")
                     if r["batch"] in timed]
        requests = of_type(main, "request", None)
        m["tune_miss_ms_p50"] = median(kernel_ms, "kernel tune")
    else:
        # A tune sample is one 14-kernel pass of set-up TUNEs.
        samples = [r for recs in setups for r in of_type(recs, "seed_pass")]
        requests = of_type(main, "request", "serve")
        m["tune_miss_ms_p50"] = median(
            [ns / 1e6 for ns in latencies(requests, ("tune",))], "TUNE")
    m["tune_s"] = median([r["wall_ns"] / 1e9 for r in samples], "tune")
    m["cpu_s"] = median([r["cpu_ns"] / 1e9 for r in samples], "tune cpu")
    m["evals_per_s"] = median(
        [r["evaluations"] / (r["wall_ns"] / 1e9) for r in samples], "evals")
    query_us = [ns / 1e3 for ns in latencies(requests, ("exact", "near"))]
    m["query_us_p50"] = median(query_us, "QUERY")
    m["query_us_p99"] = p99(query_us, "QUERY")
    # Batch and set-up lines carry the peak so far, so a run cut short
    # still has one.
    m["peak_rss_mb"] = max(r["peak_rss_kb"] for r in main
                           if "peak_rss_kb" in r) / 1024.0
    return m


def spans_by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s["end_ns"] - s["start_ns"])
    return out


def per_layer(workload, main, spans, attempted, failed):
    """Every PER_LAYER metric of one traced run.  A layer the workload
    never calls reports 0."""
    counts = {r["name"]: r["value"] for r in of_type(main, "count")}
    dur = spans_by_name(spans)

    def med(name, scale):
        vals = dur.get(name, [])
        return statistics.median(vals) / scale if vals else 0.0

    def total_s(name):
        return sum(dur.get(name, [])) / 1e9

    m = {}
    cosim_s, functional_s = total_s("sim.cosim"), total_s("sim.functional")
    m["sim.cosim_ms"] = med("sim.cosim", 1e6)
    m["sim.minsts_per_s"] = counts["sim.dyn_insts"] / cosim_s / 1e6
    m["sim.functional_minsts_per_s"] = (counts["sim.functional_insts"] /
                                        functional_s / 1e6)
    m["sim.timing_share"] = 1.0 - functional_s / cosim_s
    m["sim.decode_us"] = med("sim.decode", 1e3)
    for name in ("sim.cycles", "sim.dyn_insts", "sim.mem.loads",
                 "sim.mem.load_miss_mem", "sim.mem.hw_prefetches",
                 "sim.mem.pref_dropped", "sim.mem.bus_bytes",
                 "sim.core.mispredicts", "search.pipeline.full_compiles",
                 "search.pipeline.prefix_patches", "search.pipeline.memo_hits",
                 "kernels.tester_runs", "search.evals", "search.proposals",
                 "wisdom.records"):
        m[name] = counts[name]
    m["hil.parse_us"] = med("hil.parse", 1e3)
    m["fko.lower_us"] = med("fko.lower", 1e3)
    m["fko.analyze_us"] = med("fko.analyze", 1e3)
    m["fko.full_compile_us"] = med("fko.full_compile", 1e3)
    m["fko.full_compile_ur64_us"] = med("fko.full_compile_ur64", 1e3)
    m["search.pipeline.compile_us"] = med("search.pipeline.compile", 1e3)
    m["search.pipeline.reuse_ratio"] = (
        (counts["search.pipeline.prefix_patches"] +
         counts["search.pipeline.memo_hits"]) /
        counts["search.pipeline.compile_calls"])
    m["kernels.tester_us"] = med("kernels.tester", 1e3)
    kernel_ms = [ns / 1e6 for ns in dur["search.kernel"]]
    m["search.kernel_ms_p50"] = statistics.median(kernel_ms)
    m["search.kernel_ms_max"] = max(kernel_ms)
    m["search.dedup_hit_ratio"] = 1.0 - counts["search.evals"] / counts["search.proposals"]

    # The untraced and traced halves of the run: tuneAll batches for the
    # tune workloads, set-up TUNE passes for serve_mixed.
    kind = "batch" if workload in TUNE_WORKLOADS else "seed_pass"
    untraced, traced = of_type(main, kind, "untraced"), of_type(main, kind, "traced")
    u_wall = sum(r["wall_ns"] for r in untraced)
    u_cpu = sum(r["cpu_ns"] for r in untraced)
    attributed = sum(total_s(name) for name in ATTRIBUTED_SPANS)
    m["search.unattributed_share"] = 1.0 - attributed / (u_cpu / 1e9)
    m["trace.overhead_ratio"] = sum(r["wall_ns"] for r in traced) / u_wall
    # The tune workloads' closing tuneAll at jobs=4 against the serial
    # untraced tunes of the same kernels; serve_mixed has no pool batch.
    m["search.cpu_per_wall"] = m["search.pool.speedup"] = 0.0
    pool = of_type(main, "batch", "pool")
    if workload in TUNE_WORKLOADS and pool:
        m["search.cpu_per_wall"] = pool[0]["cpu_ns"] / pool[0]["wall_ns"]
        m["search.pool.speedup"] = u_wall / pool[0]["wall_ns"]

    m["search.evalcache.lookup_us"] = med("search.evalcache.lookup", 1e3)
    m["search.evalcache.insert_us"] = med("search.evalcache.insert", 1e3)
    m["wisdom.find_us"] = med("wisdom.find", 1e3)
    m["wisdom.record_us"] = med("wisdom.record", 1e3)
    m["wisdom.save_ms"] = med("wisdom.save", 1e6)

    handle_query_us = med("serve.handle_query", 1e3)
    m["serve.handle_query_us"] = handle_query_us
    m["serve.handle_tune_ms"] = med("serve.handle_tune", 1e6)
    # The socket metrics exist only where requests crossed a socket
    # (serve_mixed); the tune workloads' lookups are in-process.
    requests = of_type(main, "request", "serve")
    m["serve.wire_us"] = m["serve.wait_us_p99"] = m["loadgen.late_us_p99"] = 0.0
    if requests:
        queries = [r for r in requests if r["kind"] != "tune" and r["answered"]]
        m["serve.wire_us"] = median([(r["recv_ns"] - r["send_ns"]) / 1e3
                                     for r in queries], "QUERY") - handle_query_us
        # Time a QUERY waited behind the request before it: the serial
        # accept loop starts it no earlier than the previous response left.
        waits = [max(0, prev["recv_ns"] - cur["send_ns"]) / 1e3
                 for prev, cur in zip(requests, requests[1:])
                 if cur["kind"] != "tune"]
        m["serve.wait_us_p99"] = p99(waits, "QUERY wait")
        m["loadgen.late_us_p99"] = p99(
            [(r["send_ns"] - r["due_ns"]) / 1e3 for r in requests],
            "send lateness")
    m["fail_ratio"] = failed / attempted
    return m
