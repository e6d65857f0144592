#!/usr/bin/env python3
"""The repository benchmark: `prophetc sweep` end to end, plus a traced run.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The first run builds the
repository (Release, into .bench_build/prophet) and the in-process tool
perfbench/tool/pbtool.cpp (into .bench_build/perfbench).

--trace 0 times what a user runs: `prophetc sweep` child processes with
tracing off.  It reports the end-to-end metrics and checks every row
against references computed through the public Backend API.
--trace 1 runs `pbtool trace` in process instead.  It times calls into
each module with one span per call, writes them as Chrome trace JSON
(.bench_results/<workload>.trace.json, loadable in Perfetto) and derives
the per-layer metrics from the spans' self times.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Each run also appends a record with the machine metadata to
.bench_results/results.jsonl; perfbench/compare.py compares two such files.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"  # names and units of the metrics
RUN_LIMIT_S = 170  # the whole run, build excluded, must end before this
# After each full sweep, set-up runs take this share of its wall time (at
# least one set-up run).  A few hundred set-ups a run are plenty for their
# median; the rest of the run goes to full sweeps, whose per-sweep
# throughput varies more.
SETUP_SHARE = 0.15

WORKLOADS = {
    # Per-job estimates of about 1-50 us, so the pipeline's per-job
    # overhead and the summary/CSV output dominate the process wall.
    "analytic-grid": {
        "models": ["@kernel6", "@kernel6(n=256)", "@sample", "@synthetic"],
        "grid": "np=1..64 nodes=1..16 ppn=1..16 nt=1..4",
        "backend": "analytic",
        "check_sample": 1024,
        "expected": "expected/analytic-grid.txt",
        "trace": {"analytic-sample": 4096, "sim-sample": 256,
                  "cgen-models": 1, "cgen-sample": 128,
                  "pipeline-jobs": 262144},
    },
    # Discrete-event jobs with message matching do the work; job cost
    # grows with np, so coarse job claiming would show as imbalance.
    "sim-comm": {
        "models": ["@stencil2d", "@allreduce", "@pipeline", "@masterworker"],
        "grid": "np=1..32 nodes=1..4 ppn=1..8 nt=1..4",
        "backend": "sim",
        "check_sample": 64,
        "trace": {"analytic-sample": 1024, "sim-sample": 512,
                  "cgen-models": 1, "cgen-sample": 128,
                  "pipeline-jobs": 2048},
    },
    # The only workload whose jobs run generated native evaluators; its
    # set-up is four cold host compiles.
    "codegen-native": {
        "models": ["@kernel6-detailed(n=64,m=8)", "@stencil2d", "@pipeline",
                   "@masterworker"],
        "grid": "np=1..16 nodes=1..4 ppn=1..4",
        "backend": "codegen",
        "check_sample": 64,
        "trace": {"analytic-sample": 512, "sim-sample": 64,
                  "cgen-models": 4, "cgen-sample": 128,
                  "pipeline-jobs": 256},
    },
    # Many large models read from XMI files: the per-model chain (parse,
    # XMI, check, transform, lower, prepare) is most of the work here and
    # under 1% of every other workload.
    "ingest": {
        "ingest": {"count": 200, "size": 400},
        "grid": "np=1,8",
        "backend": "analytic",
        "check_sample": 128,
        # One cold compile of a generated evaluator this size takes
        # about 30 s, so the cgen layer is sampled on one model only.
        "trace": {"analytic-sample": 64, "sim-sample": 64,
                  "cgen-models": 1, "cgen-sample": 2,
                  "pipeline-jobs": 200},
    },
}

class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def first_scenario(grid):
    """The grid restricted to the first value of every axis."""
    axes = []
    for axis in grid.split():
        name, values = axis.split("=", 1)
        first = re.split(r"[,.:]", values, maxsplit=1)[0]
        axes.append(f"{name}={first}")
    return " ".join(axes)


def reference_sample(workload, seed, jobs):
    """Job ids whose rows the reference check re-evaluates."""
    rng = random.Random(f"{workload}:{seed}")
    count = min(WORKLOADS[workload]["check_sample"], jobs)
    return sorted(rng.sample(range(jobs), count))


def workload_models(workload, seed, work, tool):
    """Model arguments for prophetc; ingest writes its XMI files first."""
    spec = WORKLOADS[workload]
    if "ingest" not in spec:
        return list(spec["models"])
    out = work / "models"
    run_tool(tool, ["ingest", "--seed", str(seed),
                    "--count", str(spec["ingest"]["count"]),
                    "--size", str(spec["ingest"]["size"]),
                    "--out", str(out)])
    return [str(path) for path in sorted(out.glob("*.xmi"))]


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build(root, threads):
    """Builds prophetc and pbtool; returns their paths."""
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "tools" / "prophetc.cpp").is_file():
        raise BenchError("run from the root of a source checkout: "
                         f"{root} has no CMakeLists.txt and tools/prophetc.cpp")
    out = root / ".bench_build"
    out.mkdir(exist_ok=True)
    # The compilers (the build's and cgen's) write their temporary files
    # here rather than in the system temp directory.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    log = out / "build.log"
    prophet = out / "prophet"
    tool = out / "perfbench"
    steps = [
        ["cmake", "-S", str(root), "-B", str(prophet),
         "-DCMAKE_BUILD_TYPE=Release", "-DPROPHET_BUILD_TESTS=OFF",
         "-DPROPHET_BUILD_BENCHES=OFF", "-DPROPHET_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", str(prophet), "-j", str(threads)],
        ["cmake", "-S", str(HERE), "-B", str(tool),
         "-DCMAKE_BUILD_TYPE=Release", f"-DPROPHET_ROOT={root}",
         f"-DPROPHET_BUILD={prophet}"],
        ["cmake", "--build", str(tool), "-j", str(threads)],
    ]
    with open(out / "lock", "w") as lock, open(log, "w") as log_file:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if step[1] == "-S" and (Path(step[4]) / "CMakeCache.txt").exists():
                continue  # configured; the build step re-runs cmake if needed
            status = subprocess.run(step, stdout=log_file,
                                    stderr=subprocess.STDOUT).returncode
            if status != 0:
                raise BenchError(f"build failed: {' '.join(step)} "
                                 f"(see {log})")
    build_type = cache_value(prophet / "CMakeCache.txt", "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing to time a {build_type or 'untyped'} "
                         "build of prophetc: the benchmark needs Release")
    return prophet / "prophetc", tool / "pbtool"


def cache_value(cache, key):
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def metadata(root, workload, seed, threads):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = root / ".bench_build" / "prophet" / "CMakeCache.txt"
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True)
        lines = git.stdout.split()
        sha = lines[1] if git.returncode == 0 and \
            Path(lines[0]).resolve() == root.resolve() else None
    except OSError:
        sha = None
    # The checkout need not be a git repository; the source digest then
    # identifies the code that was built.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "tools"):
        for path in sorted((root / top).rglob("*") if (root / top).is_dir()
                           else [root / top]):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version[0] if version else compiler,
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def timed_child(argv, env, deadline, stderr_path):
    """Runs argv to completion with stdout drained.

    Returns (wall_s, cpu_s, max_rss_mb, exit_status, stdout_text); CPU and
    RSS come from wait4 for this child alone.
    """
    timeout = deadline.left()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                 env=env)
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        try:
            out = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            child.stdout.close()
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode < 0:
        raise BenchError(f"{argv[0]} killed by signal {-child.returncode}")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            child.returncode, out.decode(errors="replace"))


def run_tool(tool, args, env=None, timeout=RUN_LIMIT_S):
    done = subprocess.run([str(tool)] + args, capture_output=True, text=True,
                          env=env, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"pbtool {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


SUMMARY = re.compile(r"^ok (\d+) / failed (\d+);", re.MULTILINE)


def sweep_counts(stdout):
    """(ok, failed) from prophetc's aggregate summary line."""
    found = SUMMARY.findall(stdout)
    if not found:
        return None
    ok, failed = found[-1]
    return int(ok), int(failed)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, seed, seconds, prophetc, tool, work, threads,
               deadline):
    spec = WORKLOADS[workload]
    models = workload_models(workload, seed, work, tool)
    base = [str(prophetc), "sweep"] + models + [
        "--backend", spec["backend"], "--threads", str(threads),
        "--seed", str(seed)]
    env = dict(os.environ)
    attempted = 0
    failed = 0
    exits_ok = True

    def tally(stdout, status):
        nonlocal attempted, failed, exits_ok
        counts = sweep_counts(stdout)
        if counts is None:
            raise BenchError("prophetc printed no summary")
        attempted += counts[0] + counts[1]
        failed += counts[1]
        exits_ok = exits_ok and status == 0

    # Set-up: the first scenario only, from an empty cgen cache each time.
    # Set-up runs are interleaved with the full sweeps, so both sample the
    # same stretch of machine time.
    setup_argv = base + ["--grid", first_scenario(spec["grid"])]
    setup_walls = []

    def setup_once():
        cache = work / f"cgen-setup-{len(setup_walls)}"
        cache.mkdir()
        env["PROPHET_CGEN_CACHE"] = str(cache)
        wall, _, _, status, out = timed_child(setup_argv, env, deadline,
                                              work / "stderr.txt")
        tally(out, status)
        setup_walls.append(wall)
        if len(setup_walls) > 1:
            shutil.rmtree(cache)
        return wall

    setup_once()
    # The full sweeps keep the first set-up's cache: a user's second sweep.
    warm_cache = env["PROPHET_CGEN_CACHE"]

    full = []
    csv = work / "sweep.csv"
    start = time.monotonic()
    while len(full) < 3 or time.monotonic() - start < seconds:
        env["PROPHET_CGEN_CACHE"] = warm_cache
        wall, cpu, rss, status, out = timed_child(
            base + ["--grid", spec["grid"], "--csv", str(csv)], env,
            deadline, work / "stderr.txt")
        tally(out, status)
        jobs = sum(sweep_counts(out))
        full.append((jobs / wall, cpu, rss))
        spent = 0.0
        while spent < SETUP_SHARE * wall and len(setup_walls) < 1000:
            spent += setup_once()
    env["PROPHET_CGEN_CACHE"] = warm_cache
    check_args = ["check", "--csv", str(csv), "--mode", spec["backend"]]
    sample = work / "sample.txt"
    sample.write_text("".join(f"{job}\n" for job in
                              reference_sample(workload, seed, jobs)))
    check_args += ["--sample", str(sample)]
    if "expected" in spec:
        check_args += ["--expected", str(HERE / spec["expected"])]
    check = run_tool(tool, check_args, env, timeout=deadline.left())
    wrong = check["mismatches"] + check["expected_mismatches"]
    if wrong:
        print(f"reference check: {wrong} mismatch(es), first: "
              f"{check['first_mismatch']}", file=sys.stderr)
    if check["failed_rows"]:
        print(f"reference check: {check['failed_rows']} failed row(s)",
              file=sys.stderr)
    checked = check["checked"] + check["expected_checked"]
    failed += wrong
    attempted += checked

    metrics = {
        "setup_s": statistics.median(setup_walls),
        "jobs_per_s": statistics.median(r[0] for r in full),
        "cpu_s": statistics.median(r[1] for r in full),
        "peak_rss_mb": statistics.median(r[2] for r in full),
        "pass_rate": pass_rate(check),
    }
    raw = {"setup_walls": setup_walls, "full": full, "check": check}
    correct = exits_ok and failed == 0 and check["checked"] > 0
    return correct, attempted, failed, metrics, raw


def pass_rate(check):
    """The estimated share of the last sweep's rows that are right.

    The share of rows that succeeded times the share of re-checked rows
    that matched their reference.  A sampled row that failed counts in
    both.  All re-checked rows failing gives 0, whatever the grid size.
    """
    wrong = check["mismatches"] + check["expected_mismatches"]
    checked = check["checked"] + check["expected_checked"]
    return (1.0 - check["failed_rows"] / check["rows"]) * \
        (1.0 - wrong / checked)


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from the traced in-process run
# ---------------------------------------------------------------------------


def self_times(events):
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for event in events:
        children[event["args"]["parent"]].append(event)
    out = {}
    for event in events:
        start = event["ts"]
        end = start + event["dur"]
        covered = 0.0
        reach = start
        for child in sorted(children[event["args"]["id"]],
                            key=lambda c: c["ts"]):
            lo = max(child["ts"], reach)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[event["args"]["id"]] = event["dur"] - covered
    return out


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(events):
    """The per-layer metrics from a traced run's spans (times in us)."""
    own = self_times(events)
    spans = defaultdict(list)
    for event in events:
        spans[event["name"]].append(event)

    def total_self(name):
        return sum(own[e["args"]["id"]] for e in spans[name])

    def total(name, key):
        return sum(e["args"][key] for e in spans[name])

    def durations(name):
        return [e["dur"] for e in spans[name]]

    def one(name):
        found = spans[name]
        if len(found) != 1:
            raise BenchError(f"expected one {name} span, found {len(found)}")
        return found[0]

    models = len(spans["model"])
    root = one("traced_run")
    run_1 = one("pipeline.run_1")
    run_n = one("pipeline.run_n")
    direct = one("pipeline.direct")
    to_csv = one("pipeline.to_csv")
    summary = one("pipeline.summary")
    cold = [e for e in spans["cgen.prepare"] if e["args"]["cold"]]
    warm = [e for e in spans["cgen.prepare"] if not e["args"]["cold"]]
    jobs = run_1["args"]["jobs"]
    output = to_csv["dur"] + summary["dur"]
    m = {
        "xml.parse_mb_per_s":
            total("xml.parse", "bytes") / total_self("xml.parse"),
        "xmi.from_document_ms_per_model":
            total_self("xmi.from_document") / models / 1e3,
        "check.ms_per_model": total_self("check") / models / 1e3,
        "codegen.transform_ms_per_model":
            total_self("codegen.transform") / models / 1e3,
        "codegen.generated_bytes": total("codegen.transform", "bytes"),
        "lower.ms_per_model": total_self("lower") / models / 1e3,
        "lower.bytecode_bytes": total("lower", "bytecode_bytes"),
        "analytic.prepare_ms_per_model":
            total_self("analytic.prepare") / models / 1e3,
        "analytic.estimate_ns_p50":
            percentile(durations("analytic.estimate"), 0.50) * 1e3,
        "analytic.estimate_ns_p99":
            percentile(durations("analytic.estimate"), 0.99) * 1e3,
        "analytic.batch_ns_per_job":
            total_self("analytic.estimate_batch") * 1e3
            / total("analytic.estimate_batch", "lanes"),
        "sim.estimate_us_p50": percentile(durations("sim.estimate"), 0.50),
        "sim.estimate_us_p99": percentile(durations("sim.estimate"), 0.99),
        "sim.events_per_job":
            total("sim.estimate", "events") / len(spans["sim.estimate"]),
        "sim.ns_per_event": total_self("sim.estimate") * 1e3
            / total("sim.estimate", "events"),
        "cgen.prepare_cold_s":
            statistics.mean(e["dur"] for e in cold) / 1e6,
        "cgen.prepare_warm_ms":
            statistics.mean(e["dur"] for e in warm) / 1e3,
        "cgen.source_bytes": sum(e["args"].get("source_bytes", 0)
                                 for e in cold),
        "cgen.so_bytes": sum(e["args"]["so_bytes"] for e in cold),
        "cgen.estimate_us_p50": percentile(durations("cgen.estimate"), 0.50),
        "cgen.estimate_us_p99": percentile(durations("cgen.estimate"), 0.99),
        "cgen.speedup_vs_sim": sum(durations("cgen.sim_reference"))
            / sum(durations("cgen.estimate")),
        "pipeline.overhead_ns_per_job":
            (run_1["dur"] - run_1["args"]["prepare_s"] * 1e6 - direct["dur"])
            * 1e3 / jobs,
        "pipeline.scaling": run_1["dur"] / run_n["dur"],
        "pipeline.lanes_fallback":
            one("pipeline.run_metrics")["args"]["lanes_fallback"],
        "pipeline.compile_s": one("pipeline.compile")["dur"] / 1e6,
        "pipeline.csv_ns_per_row":
            to_csv["dur"] * 1e3 / to_csv["args"]["rows"],
        "pipeline.summary_ns_per_row":
            summary["dur"] * 1e3 / summary["args"]["rows"],
        "pipeline.csv_bytes_per_row":
            to_csv["args"]["bytes"] / to_csv["args"]["rows"],
        "pipeline.output_share": output / (run_n["dur"] + output),
        "trace.overhead_share": root["args"]["trace_traced_s"]
            / root["args"]["trace_untraced_s"] - 1.0,
    }
    return m


def traced(workload, seed, tool, work, threads, root):
    spec = WORKLOADS[workload]
    models = workload_models(workload, seed, work, tool)
    trace_file = work / "trace.json"
    args = ["trace", "--backend", spec["backend"], "--grid", spec["grid"],
            "--threads", str(threads), "--seed", str(seed),
            "--cache", str(work / "cgen"), "--out", str(trace_file)]
    for key, value in spec["trace"].items():
        args += [f"--{key}", str(value)]
    result = run_tool(tool, args + models)
    if result["failed"]:
        print(f"traced run: {result['failed']} failure(s), first: "
              f"{result['first_failure']}", file=sys.stderr)
    events = json.loads(trace_file.read_text())["traceEvents"]
    metrics = layer_metrics(events)
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    shutil.copyfile(trace_file, results / f"{workload}.trace.json")
    correct = result["failed"] == 0
    return correct, result["attempted"], result["failed"], metrics, result


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    threads = min(len(os.sched_getaffinity(0)), 4)
    try:
        prophetc, tool = build(root, threads)
        work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            deadline = Deadline(RUN_LIMIT_S)
            if args.trace:
                outcome = traced(args.workload, args.seed, tool, work,
                                 threads, root)
            else:
                outcome = end_to_end(args.workload, args.seed, args.seconds,
                                     prophetc, tool, work, threads, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        meta = metadata(root, args.workload, args.seed, threads)
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    correct, attempted, failed, values, raw = outcome
    listed = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in listed) != sorted(values):
        print("perfbench: measured metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    record = {"meta": meta, "trace": args.trace, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "raw": raw}
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / "results.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")

    print("meta " + json.dumps(meta))
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
