#!/usr/bin/env python3
"""agora's named benchmark.

One workload run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload admit_churn --seed 1 --seconds 10 --trace 0

builds the harness on first use (Release, into .bench_build), runs the
workload, checks its outputs and prints, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.

Steadiness mode runs a workload repeatedly with consecutive seeds and prints,
for every end-to-end metric, the median, the quartiles and the quartile
spread against the metric's bound; with --sets 2 it repeats the whole set and
compares the two medians:

    python3 perfbench/run.py --steady --workload all --runs 10 --sets 2

--self-test builds and runs the tests of the shared measurement helpers.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configure (once) and build; make's own timestamps keep reruns cheap."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("agora sources (src/) not found next to perfbench/; nothing to build")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"cmake configure failed (see {log_path})")
        r = subprocess.run(["cmake", "--build", bdir, "--target", *targets, "-j", "3"],
                           stdout=log, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail(f"build failed (see {log_path})")
    return bdir


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_once(bench, workloads, name, seed, seconds, trace):
    if name not in workloads:
        fail(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    bdir = build(["agora_perf"])
    params = workloads[name]["params"]
    cmd = [os.path.join(bdir, "agora_perf"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", "--trace-out", os.path.join(trace_dir, f"{name}-seed{seed}.jsonl")]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {name} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(f"harness exited with code {proc.returncode}", 1)
    raw = json.loads(lines[-1])

    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[5:])
            host["source"] = source_id()
            line = "host " + json.dumps(host, sort_keys=True)
        print(line)

    group = "per_layer" if trace else "end_to_end"
    measured = raw[group]
    metrics = {}
    absent = []
    for m in bench[group]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(f"workload {name} did not report end-to-end metric {m['name']}", 1)
            # A layer this workload never calls did no work on it.
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print(f"layers not on the {name} path (reported as 0): {', '.join(absent)}")
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(bench, workloads, args):
    names = list(workloads) if args.workload == "all" else [args.workload]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {}
    for name in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + i
                t0 = time.time()
                r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                    "--seed", str(seed), "--seconds", str(seconds),
                                    "--trace", "0"], capture_output=True, text=True)
                if r.returncode != 0:
                    sys.stdout.write(r.stdout)
                    sys.stderr.write(r.stderr)
                    fail(f"{name} seed {seed} failed", 1)
                res = json.loads(r.stdout.strip().split("\n")[-1])
                runs.append(res)
                print(f"  {name} set {k + 1} seed {seed}: {time.time() - t0:5.1f} s wall, "
                      f"correct={res['correct']} failed={res['failed']}", flush=True)
            sets.append(runs)
        print(f"\n{name}: {args.runs} runs x {args.sets} sets, {seconds} s each")
        print(f"  {'metric':18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        report[name] = {}
        for metric, m in bounds.items():
            medians = []
            for k, runs in enumerate(sets):
                vals = [run["metrics"][metric]["value"] for run in runs]
                q1, q2, q3, sp = spread(vals)
                medians.append(q2)
                verdict = ("steady" if sp <= m["bound"] / 3 else
                           "within bound" if sp <= m["bound"] else "TOO WIDE")
                print(f"  {metric:18} {k + 1:>3} {q2:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{sp:8.4f} {m['bound']:6.3f}  {verdict}")
                report[name].setdefault(metric, []).append(
                    {"median": q2, "q1": q1, "q3": q3, "spread": sp, "values": vals})
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                print(f"  {metric:18} set 2 vs set 1: {100 * worse:+.2f}% worse "
                      f"(bound {100 * m['bound']:.0f}%) "
                      f"{'ok' if worse <= m['bound'] else 'REGRESSION'}")
        print()
    out = os.path.join(build_dir(), "steady.json")
    os.makedirs(build_dir(), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"saved {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true", help="steadiness mode (see above)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the measurement-helper tests")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    workloads = load_json(os.path.join(HERE, "workloads.json"))

    if args.self_test:
        bdir = build(["perf_harness_test"])
        sys.exit(subprocess.run([os.path.join(bdir, "perf_harness_test")]).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.steady:
        steady(bench, workloads, args)
        return
    result = run_once(bench, workloads, args.workload, args.seed,
                      args.seconds or bench["run_seconds"], args.trace == 1)
    print(json.dumps(result, sort_keys=False))


if __name__ == "__main__":
    main()
