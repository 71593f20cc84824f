#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/bench.exe from source and runs
one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the repository.  BENCHMARK.json names the workloads
and metrics.  Standard output first lists the workload's end-to-end metrics
under their own names (ops_per_s, latency_p99_us, build_s, ...) with units
and sample counts; its last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics BENCHMARK.json
declares with --trace 0, the per-layer metrics with --trace 1, which also
wraps the calls into each library layer in spans.  Everything the run writes
stays under .bench_build/ in the current directory; each run also appends
its full record, host fingerprint included, to
.bench_build/perfbench/results.jsonl (see perfbench/compare.py).

setup_s is the median, over SETUP_SAMPLES process launches, of the CPU
seconds the benchmark and its child processes spent from process start to
the "ready" line it prints just before its first timed call.  Like every
timing of the benchmark it is CPU time, which leaves out the time a shared
host steals from the virtual CPUs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

SETUP_SAMPLES = 6
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", root, "--profile", "release",
           "--build-dir", build_dir, "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed:\n" + r.stderr[-4000:])
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    if not os.path.isfile(exe):
        die("build produced no " + exe)
    return exe


def launch(exe, args, env, deadline):
    """Runs the benchmark; returns (set-up CPU seconds, stdout lines)."""
    proc = subprocess.Popen([exe] + args, env=env, stdout=subprocess.PIPE, text=True)
    got = {"ready_s": None, "lines": []}

    def read():
        for line in proc.stdout:
            if got["ready_s"] is None and line.startswith("ready "):
                got["ready_s"] = float(line.split()[1])
            got["lines"].append(line.rstrip("\n"))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("benchmark overran its %d s budget" % RUN_TIMEOUT_S)
    reader.join()
    if proc.returncode != 0 or got["ready_s"] is None:
        die("benchmark exited with %s" % proc.returncode)
    return got["ready_s"], got["lines"]


def source_id(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=10)
            if r.returncode == 0:
                return "git:" + r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + a.workload)
    if not os.path.isfile(os.path.join(root, "dune-project")):
        die("not the root of the repository (no dune-project)")

    out_dir = os.path.join(root, ".bench_build", "perfbench")
    exe = build(root, os.path.join(root, ".bench_build", "dune"))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(out_dir, exist_ok=True)
    nproc = os.cpu_count() or 1
    omp = min(nproc, int(os.environ.get("OMP_NUM_THREADS", nproc) or nproc))
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        env = dict(os.environ, TMPDIR=work, OMP_NUM_THREADS=str(omp),
                   AKG_CPU_CACHE=os.path.join(work, "runner-default"))
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds)]
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            wd = os.path.join(work, "setup-%d" % i)
            os.makedirs(wd)
            setups.append(launch(exe, common + ["--workdir", wd, "--setup-only"], env,
                                 deadline)[0])
        wd = os.path.join(work, "main")
        os.makedirs(wd)
        spans = ["--spans", os.path.join(out_dir, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
        ready_s, lines = launch(exe, common + ["--workdir", wd] + (spans if a.trace else []),
                                env, deadline)
        setups.append(ready_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark printed no result")

    measured = dict(res["metrics"], setup_s=statistics.median(setups))
    fingerprint = dict(res["fingerprint"], nproc=nproc, omp_num_threads=omp,
                       akg_cc=os.environ.get("AKG_CC"))
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                            "source": source_id(root), "fingerprint": fingerprint,
                            "attempted": res["attempted"], "failed": res["failed"],
                            "setup_samples": setups, "metrics": measured}) + "\n")

    for line in lines[:-1]:
        if not line.startswith("ready "):
            print(line)
    print("%-24s %18.6f %-5s (median of %d launches)"
          % ("setup_s", measured["setup_s"], "s", len(setups)))
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
