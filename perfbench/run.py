#!/usr/bin/env python3
"""End-to-end benchmark entry point for jedule (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. Builds the jedule CLI and the `jbench`
program from source into .bench_build/ (Release), then hands the process
over to `jbench`, whose last stdout line is the result JSON. --smoke runs
every workload at tiny sizes and checks that the generator is
deterministic and that the printed metric names match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
JBENCH = os.path.join(BUILD, "jbench")
JEDULE = os.path.join(BUILD, "jedule", "jedule", "cli", "jedule")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: jedule sources (src/) not found next to perfbench/")
        sys.exit(2)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "jbench",
                  "jedule"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(2)


def commit():
    """The checked-out commit, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def jbench_args(workload, seed, seconds, trace, smoke):
    args = [JBENCH, "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--root", ROOT, "--jedule",
            JEDULE, "--commit", commit()]
    return args + (["--smoke"] if smoke else [])


def smoke():
    """Tiny-size self-test of the benchmark itself."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ok = True
    out_root = os.path.join(ROOT, ".bench_build", "smoke")
    for wl in spec["workloads"]:
        name = wl["name"]
        # Same seed -> same bytes; another seed -> other bytes.
        digests = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            out = os.path.join(out_root, f"{name}-{tag}")
            subprocess.run([JBENCH, "gen", "--workload", name, "--seed",
                            str(seed), "--out", out, "--smoke"], check=True)
            h = hashlib.sha256()
            for f in sorted(os.listdir(out)):
                h.update(f.encode())
                h.update(open(os.path.join(out, f), "rb").read())
            digests.append(h.hexdigest())
        if digests[0] != digests[1] or digests[0] == digests[2]:
            log(f"smoke: {name}: generator is not deterministic per seed")
            ok = False
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(jbench_args(name, 1, 1, trace, True),
                                 capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if run.returncode or not result.get("correct") or want != got:
                log(f"smoke: {name} --trace {trace}: exit {run.returncode}, "
                    f"correct={result.get('correct')}, "
                    f"missing={sorted(set(want) - set(got))}, "
                    f"extra={sorted(set(got) - set(want))}\n{run.stderr}")
                ok = False
            else:
                log(f"smoke: {name} --trace {trace}: ok "
                    f"({result['attempted']} checked operations)")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    if not a.workload:
        p.error("--workload is required")
    args = jbench_args(a.workload, a.seed, a.seconds, a.trace, False)
    sys.stdout.flush()
    os.execv(JBENCH, args)


if __name__ == "__main__":
    main()
