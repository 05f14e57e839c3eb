#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is the dune project in
perfbench/_src; it is built from source against a copy of the checkout's
lib/ in .bench_build/ws, so the repository's own build never sees it.
The last line printed is the result object; its metric names and units
must be exactly those BENCHMARK.json lists for the mode, or the run
fails. Exit status is non-zero whenever no valid result was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKSPACE = os.path.join(BUILD, "ws")
EXE = os.path.join(WORKSPACE, "_build", "default", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def prepare_workspace():
    """Lay out .bench_build/ws: the benchmark project plus a copy of lib/."""
    if not os.path.isdir("lib") or not os.path.isfile(os.path.join("lib", "core", "dune")):
        fail("no lib/ here: run from the root of a checkout of the repository")
    os.makedirs(WORKSPACE, exist_ok=True)
    for name in os.listdir(WORKSPACE):
        if name != "_build":
            path = os.path.join(WORKSPACE, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    src = os.path.join(HERE, "_src")
    for name in os.listdir(src):
        shutil.copy2(os.path.join(src, name), WORKSPACE)
    shutil.copytree("lib", os.path.join(WORKSPACE, "lib"))


def scratch_dir(name):
    path = os.path.abspath(os.path.join(BUILD, name))
    os.makedirs(path, exist_ok=True)
    return path


def dune(*args):
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch_dir("tmp"))
    cmd = dune_command() + list(args) + ["--root", WORKSPACE, "--display", "quiet"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("dune %s failed" % " ".join(args))
    return proc.stdout


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line is not JSON")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the result must have exactly the keys %s" % sorted(RESULT_KEYS))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            fail("metric %s has no numeric value" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("no BENCHMARK.json here: run from the root of the checkout")
    prepare_workspace()
    if args.self_test:
        sys.stdout.write(dune("build", "@runtest", "--force"))
        return
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        fail("need --workload, --seed, --seconds and --trace")
    dune("build", "./main.exe")
    workdir = scratch_dir("work")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    env = dict(os.environ, FTR_OBS="0", FTR_CHECK="0", FTR_EXEC_SEQ="0", TMPDIR=scratch_dir("tmp"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("the benchmark printed nothing (exit %d)" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    result = validate(lines[-1], args.trace)
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
