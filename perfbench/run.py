#!/usr/bin/env python3
"""Entry point of the snnsec benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the library and the benchmark binary
from source into $CARGO_TARGET_DIR (default .bench_build), trains the
served cells once per source digest, runs the workload in a private temporary
directory under the build directory and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. The two lines
before it record the run environment and the full operation counts.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 900


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, d))


def build(targets):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench_build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"]
                     + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return bdir


# What the served cells and PGD sets are made from: the library, its build
# file and the benchmark's own training recipe.
DIGEST_PATHS = ("src", "CMakeLists.txt", "perfbench/cpp",
                "perfbench/CMakeLists.txt")


def source_digest():
    """Digest of DIGEST_PATHS; keys the artifact cache and identifies
    checkouts that are not git trees."""
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def child_env(tmp):
    env = dict(os.environ)
    # Pinned compute pool: see BENCHMARK.json and perfbench/README.md.
    env["SNNSEC_THREADS"] = "1"
    env["SNNSEC_LOG"] = "warn"
    env["TMPDIR"] = tmp
    for var in ("SNNSEC_METRICS_FILE", "SNNSEC_TRACE_FILE", "SNNSEC_LOG_FILE",
                "SNNSEC_METRICS"):
        env.pop(var, None)
    return env


def run_child(cmd, env):
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]], [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the load driver's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no snnsec sources next to perfbench/ (run from a full "
             "checkout)", 2)
    if args.selftest:
        bdir = build(["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(bdir, "perfbench_selftest")]).returncode)

    names, workloads = metric_names(args.trace == 1)
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, workloads), 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    bdir = build(["snnsec_perfbench"])
    binary = os.path.join(bdir, "snnsec_perfbench")
    digest = source_digest()
    caches = os.path.join(bdir, "perfbench_cache")
    # Artifacts trained from other sources are never served: each source
    # digest has its own cache, and the others are removed.
    cache = os.path.join(caches, digest)
    runs = os.path.join(bdir, "perfbench_runs")
    traces = os.path.join(bdir, "perfbench_traces")
    for d in (cache, runs, traces):
        os.makedirs(d, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        env = child_env(tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--cache", cache]
        with open(os.path.join(caches, ".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # one trainer per cache
            for old in os.listdir(caches):
                if old not in (digest, ".lock"):
                    shutil.rmtree(os.path.join(caches, old),
                                  ignore_errors=True)
            prep = run_child([binary, "prepare"] + common, env)
        if prep.returncode != 0:
            fail("prepare failed")
        trace_out = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")
        res = run_child([binary, "run"] + common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--tmp", tmp, "--trace-out", trace_out], env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("benchmark printed no result (exit %d)" % res.returncode)
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: %s" % ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}

    env_line = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "snnsec_threads": 1,
        "git_commit": git_commit(), "source_digest": digest,
        "build_type": BUILD_TYPE,
    }
    print(json.dumps({"env": env_line}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and res.returncode == 0 else 1)


if __name__ == "__main__":
    main()
