#!/usr/bin/env python3
"""rtdls performance ledger: build librtdls plus the perfbench binary from
this checkout, run one workload, and pass its result through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in $CARGO_TARGET_DIR (default
.bench_build); scratch files go to a per-run directory inside it and are
removed afterwards. The last line of stdout is the result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["paper_sweep", "large_n_replay", "backfill_history", "daemon_open_loop"]
JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run(binary, args, workdir):
    """Runs the binary in a fresh scratch directory; returns (code, stdout)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = subprocess.run([binary, "--workdir", os.path.relpath(workdir, ROOT)] + args,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """Smoke-runs every workload in both modes and checks each planted
    defect fails its workload's output check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workdir = os.path.join(build_dir(), "selftest")
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                    "--smoke"]
            code, stdout = run(binary, args, workdir)
            result = result_of(stdout)
            label = "%s trace=%s" % (workload, trace)
            if code != 0 or not result or not result["correct"]:
                problems.append("%s: exit %d, result %s" % (label, code, result))
                continue
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in metrics:
                    problems.append("%s: metric %s missing" % (label, name))
                elif metrics[name]["unit"] != unit:
                    problems.append("%s: %s has unit %s, not %s"
                                    % (label, name, metrics[name]["unit"], unit))
            extra = set(metrics) - set(expected[trace])
            if extra:
                problems.append("%s: unexpected metrics %s" % (label, sorted(extra)))
            print("selftest: %-16s trace=%s ok" % (workload, trace))
    plants = [("daemon_open_loop", "wrong_reply")] + [
        (w, "violation") for w in ("paper_sweep", "large_n_replay", "backfill_history")]
    for workload, plant in plants:
        args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
                "--smoke", "--plant", plant]
        code, stdout = run(binary, args, workdir)
        result = result_of(stdout)
        caught = code != 0 and result is not None and not result["correct"] and result["failed"] > 0
        print("selftest: planted %-11s in %-16s %s"
              % (plant, workload, "caught" if caught else "MISSED"))
        if not caught:
            problems.append("planted %s in %s was not caught" % (plant, workload))
    for problem in problems:
        print("selftest: FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload and the planted defects")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("run.py: %s is not an rtdls checkout (no %s)" % (ROOT, needed), file=sys.stderr)
            return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(binary)

    workdir = os.path.join(build_dir(), "work-%s-%d" % (args.workload, os.getpid()))
    code, stdout = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", args.trace], workdir)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
