#!/usr/bin/env python3
"""End-to-end Strober benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then repeats one workload for S seconds, one
fresh process per iteration, in a private temporary directory under the
build directory that is removed afterwards. --trace 0 reports the
end-to-end metrics (medians over the iterations); --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics, and
writes the merged Chrome trace to <build>/traces/. The last line of
standard output is the JSON result; everything above it is for people.
--workload all runs the three workloads in turn, and its last line maps
each workload's name to its result. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

DEFAULT_SEED = 0x5eed5eed  # the sampler seed `strober run` uses
# The workloads `--workload all` runs, in strober_e2e's order
# (strober_e2e.cc defines them and rejects any other name).
ALL_WORKLOADS = ("cold-compiled-coremark", "stream-gcc",
                 "replay-linuxboot-cached")

MIN_ITERATIONS = 2   # timed iterations per run, whatever --seconds says
RUN_BUDGET_S = 165   # never start an iteration that could end past this


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    """HEAD of the git work tree rooted at `root`, or "none" when `root`
    is not the top of one (a plain source export)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(
            lines[0], root):
        return "none"
    return lines[1]


def run_group(cmd, timeout=None, **kwargs):
    """Runs `cmd` in its own process group and waits for it. On a timeout
    or a signal the whole group (a build's compilers, an iteration's JIT
    compiler) is killed and reaped before the exception propagates.
    Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(root, build_dir):
    """Configure once, then build strober_e2e (incremental). Build output
    goes to stderr so the result stays the last line of stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run_group(cmd, stdout=sys.stderr)[0] != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "strober_e2e",
           "-j", jobs]
    if run_group(cmd, stdout=sys.stderr)[0] != 0:
        fail("build failed")
    return os.path.join(build_dir, "strober_e2e")


class Runner:
    """Runs single iterations of strober_e2e and checks them."""

    def __init__(self, binary, workload, seed, tmp):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, TMPDIR=tmp)  # JIT scratch stays here
        self.origin = time.monotonic()  # for the whole-run time budget
        self.start = self.origin         # of the measured window
        self.longest = 0.0
        self.digest = None
        self.results = []
        self.trace_files = []

    def elapsed(self):
        return time.monotonic() - self.start

    def can_start(self):
        spent = time.monotonic() - self.origin
        return spent + self.longest * 1.2 < RUN_BUDGET_S

    def iterate(self, traced=False, isolated=False, warmup=False):
        k = len(self.results)
        cmd = [self.binary, "--workload", self.workload, "--seed",
               str(self.seed), "--tmp", self.tmp, "--iteration", str(k)]
        if warmup:
            cmd.append("--warmup")
        if traced:
            path = os.path.join(self.tmp, "trace-%d.json" % k)
            cmd += ["--trace-out", path] + (["--isolated"] if isolated else [])
            self.trace_files.append(path)
        t0 = time.monotonic()
        try:
            rc, out = run_group(
                cmd, timeout=max(5, 175 - (time.monotonic() - self.origin)),
                env=self.env, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail("iteration %d did not finish in time" % k)
        self.longest = max(self.longest, time.monotonic() - t0)
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            fail("iteration %d exited with code %d" % (k, rc))
        r = json.loads(lines[-1])
        r["traced"] = traced
        r["warmup"] = warmup
        r["total_s"] = r["setup_s"] + r["report_s"]
        # The report must repeat exactly across iterations, traced or not
        # (and match the recorded digest at the default seed, which the
        # binary checks itself).
        if r["ok"]:
            if self.digest is None:
                self.digest = r["digest"]
            elif r["digest"] != self.digest:
                r["ok"] = False
                r["why"] = "report digest %s differs from iteration 0's %s" % (
                    r["digest"], self.digest)
        print("  iteration %d%s: setup %.4f s, report %.4f s (fast sim "
              "%.4f s, replay %.4f s), re-estimate %.4f s, digest %s%s" % (
                  k, " (traced)" if traced else " (warm-up, untimed)"
                  if warmup else "", r["setup_s"],
                  r["report_s"], r["fast_sim_s"], r["replay_s"],
                  r["warm_report_s"], r["digest"],
                  "" if r["ok"] else "  FAILED: " + r["why"]))
        sys.stdout.flush()
        self.results.append(r)
        return r

    def warm_up(self):
        """One untimed iteration on the activity interpreter. The first
        flow after the host has idled runs markedly slower (setup and
        replay alike). The untraced run's median absorbs that; the traced
        run compares single iterations, so it warms up first. The warm-up
        is still checked and counted as an operation."""
        self.iterate(warmup=True)
        self.start = time.monotonic()

    def timed_results(self):
        timed = [r for r in self.results if not r["warmup"]]
        return [r for r in timed if r["ok"]] or timed

    def merge_traces(self, out_path, provenance):
        events = []
        for path in self.trace_files:
            with open(path) as f:
                events += json.load(f)["traceEvents"]
        origin = min((e["ts"] for e in events), default=0)
        for e in events:
            e["ts"] = round(e["ts"] - origin, 3)
        with open(out_path, "w") as f:
            json.dump({"displayTimeUnit": "ms", "otherData": provenance,
                       "traceEvents": events}, f)


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def measure(runner, seconds):
    """--trace 0: untraced iterations for `seconds`; end-to-end medians."""
    count = 0
    while count < MIN_ITERATIONS or (runner.elapsed() < seconds
                                     and runner.can_start()):
        runner.iterate()
        count += 1
    ok = runner.timed_results()
    return [("setup_s", median_of(ok, "setup_s"), "s"),
            ("report_s", median_of(ok, "report_s"), "s"),
            ("total_s", median_of(ok, "total_s"), "s"),
            ("warm_report_s", median_of(ok, "warm_report_s"), "s"),
            ("peak_rss_mb", median_of(ok, "peak_rss_mb"), "MB")], len(ok)


def measure_traced(runner, seconds):
    """--trace 1: untraced/traced pairs for `seconds`; the first traced
    iteration also times the isolated layers. Per-layer metrics."""
    runner.warm_up()
    first = True
    while True:
        runner.iterate()
        runner.iterate(traced=True, isolated=first)
        first = False
        if runner.elapsed() >= seconds or not runner.can_start():
            break
    ok = runner.timed_results()
    plain = [r for r in ok if not r["traced"]] or ok
    traced = [r for r in ok if r["traced"]] or ok
    first = next(r for r in runner.results if r["traced"])
    metrics = [tuple(m) for m in first["layers"]]
    coverage = statistics.median(r["covered_s"] / r["total_s"] for r in traced)
    metrics.append(("trace.coverage", coverage, "fraction"))
    metrics.append(("trace.overhead_s", median_of(traced, "total_s")
                    - median_of(plain, "total_s"), "s"))
    return metrics, len(traced)


def run_workload(binary, build_dir, workload, args, source):
    """Runs one workload, prints its summary and returns its result."""
    print("workload %s, sampler seed %d, %s" % (
        workload, args.seed, "traced" if args.trace else "untraced"))
    sys.stdout.flush()
    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        runner = Runner(binary, workload, args.seed, tmp)
        if args.trace:
            metrics, samples = measure_traced(runner, args.seconds)
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
                workload, args.seed))
        else:
            metrics, samples = measure(runner, args.seconds)
        provenance = dict(runner.results[0]["provenance"], **source)
        provenance.update(workload=workload, sampler_seed=args.seed)
        if args.trace:
            runner.merge_traces(trace_path, provenance)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(runner.results)
    failed = sum(1 for r in runner.results if not r["ok"])
    if args.trace:
        print("per-layer metrics (first traced iteration; coverage and "
              "overhead: medians of %d traced iterations):" % samples)
    else:
        print("end-to-end metrics (host time; medians of %d iterations):"
              % samples)
    for name, value, unit in metrics:
        print("  %-28s %16.6f %s" % (name, value, unit))
    print("operations: %d attempted, %d failed" % (attempted, failed))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        print("trace: " + trace_path)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }


def main():
    # SIGTERM unwinds like SIGINT, so the running iteration is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=" | ".join(ALL_WORKLOADS) + " | all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="sampler seed (default 0x5eed5eed, as in the CLI)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a Strober source tree (no src/ here)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(root, build_dir)
    source = {"git_commit": git_commit(root),
              "src_sha256": source_digest(root)[:16]}
    if args.workload != "all":
        result = run_workload(binary, build_dir, args.workload, args, source)
        print(json.dumps(result))
        return
    # Every workload in turn; the last line maps each name to its result.
    results = {}
    for workload in ALL_WORKLOADS:
        results[workload] = run_workload(binary, build_dir, workload, args,
                                         source)
        print()
    print(json.dumps(results))


if __name__ == "__main__":
    main()
