#!/usr/bin/env python3
"""Build and run the fairmpi repository benchmark.

Run from the root of a fairmpi checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run builds the engine and the perfbench binary from source into
.bench_build/ (Release; later runs only rebuild what changed), runs one
workload and prints its report. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics (BENCHMARK.json
lists both). Every run also appends its full record, with the host and
build fingerprint, to .bench_build/perfbench/results.jsonl; --compare
reads two such files and refuses to compare across host classes or builds.
--selftest runs the benchmark's own verification tests.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD_DIR / "results.jsonl"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Fingerprint fields that make up a host class / a build: results that
# differ in any of them are not comparable.
HOST_CLASS = ("cpu_model", "nproc", "pinning")
BUILD = ("build_type", "compiler")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    sources = (ROOT / "src" / "CMakeLists.txt", ROOT / "include" / "fairmpi")
    if not all(p.exists() for p in sources):
        die(f"fairmpi sources (src/, include/) not found under {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed")


def source_digest():
    """sha256 over the engine and benchmark sources (the checkout may not
    be a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for sub in ("include", "src", "perfbench"):
        for f in sorted((ROOT / sub).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(f.relative_to(ROOT).as_posix().encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    """name -> unit from BENCHMARK.json for this trace mode, or None."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return None
    spec = json.loads(spec_file.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    build()
    exe = BUILD_DIR / "perfbench"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD_DIR / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench binary timed out", 1)
    if proc.returncode != 0:
        die(f"perfbench binary exited with {proc.returncode}", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        die("perfbench binary printed nothing", 1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        die(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", 1)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        die(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}", 1)

    record = None
    for line in lines[:-1]:
        if line.startswith("perfbench-record "):
            record = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    if record is None:
        die("perfbench binary printed no record", 1)
    fp = record["fingerprint"]
    cpus = [t["cpu"] for s in record["sessions"] for t in s["threads"]]
    fp["pinning"] = "none" if any(c < 0 for c in cpus) else "one thread per cpu"
    fp["git_commit"] = git_commit()
    fp["source_digest"] = source_digest()
    record["result"] = result
    with RESULTS.open("a") as f:
        f.write(json.dumps(record) + "\n")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))


def selftest():
    build()
    sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if not old or not new:
        die("nothing to compare")
    classes = {tuple(r["fingerprint"].get(k) for k in HOST_CLASS + BUILD) for r in old + new}
    if len(classes) != 1:
        die("refusing to compare results from different host classes or builds: "
            + "; ".join(str(dict(zip(HOST_CLASS + BUILD, c))) for c in sorted(classes, key=str)), 3)
    spec_file = ROOT / "BENCHMARK.json"
    better = {}
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        better = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def medians(records):
        groups = {}
        for r in records:
            for name, m in r["result"]["metrics"].items():
                groups.setdefault((r["workload"], name), []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in groups.items()}

    mo, mn = medians(old), medians(new)
    worse = 0
    for key in sorted(mo.keys() & mn.keys()):
        (a, na), (b, nb) = mo[key], mn[key]
        change = (b - a) / a if a else 0.0
        spec = better.get(key[1], {})
        flag = ""
        if "bound" in spec:
            sign = 1 if spec["better"] == "lower" else -1
            if sign * change > spec["bound"]:
                flag = "  WORSE than bound"
                worse += 1
        print(f"{key[0]:20} {key[1]:32} {a:14.6g} ({na}) -> {b:14.6g} ({nb}) {change:+8.2%}{flag}")
    sys.exit(1 if worse else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.selftest:
        selftest()
    elif args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        p.error("--workload, --selftest or --compare is required")


if __name__ == "__main__":
    main()
