#!/usr/bin/env python3
"""Merge google-benchmark JSON output from micro_lp, micro_warmstart and
micro_certify into the compact BENCH_lp.json the repo tracks (see
tools/bench.sh).

Usage: bench_lp_json.py <build_dir> <micro_lp.json> <lpscale_summary.txt> \
                        <micro_warmstart.json> <warmstart_summary.txt> \
                        <micro_certify.json> <certify_summary.txt> <out.json>

`build_type` records agora's own CMAKE_BUILD_TYPE, read from
<build_dir>/CMakeCache.txt and lower-cased like google-benchmark's library
build type, which is kept separately as `benchmark_library_build_type`.

Only the Python standard library is used. For every benchmark we keep the
iteration count, ns/solve (real time) and -- where the benchmark reports it
-- allocations and LP pivots per solve. micro_lp's LPSCALE sweep lines
(one per n x backend configuration, plus the closing
revised_vs_cold_chain_n100 line) are parsed into a "scaling" block, the
micro_warmstart verification line (WARMSTART theta_max_diff=...
cold_iters=... warm_iters=... iter_ratio=...) into a "warmstart" block,
and the micro_certify line (CERTIFY overhead_pct=... certified_solves=...
fallbacks=... uncertified_grants=...) into a "certify" block, so all
acceptance metrics are recorded alongside the timings.
"""

import json
import os
import re
import sys


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    out = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "name": b["name"],
            "iterations": b.get("iterations", 0),
            "ns_per_solve": round(float(b.get("real_time", 0.0)), 2),
        }
        for counter in ("allocs_per_solve", "lp_iters_per_solve"):
            if counter in b:
                entry[counter] = round(float(b[counter]), 3)
        out.append(entry)
    return out, doc.get("context", {})


def parse_lpscale(path):
    with open(path) as f:
        text = f.read()
    points = []
    for m in re.finditer(
        r"LPSCALE n=(\d+) backend=(\S+) certified=(\d) consults_per_s=(\S+)"
        r" iterations=(\d+) basis_nnz=(\d+) lu_nnz=(\d+) fill_ratio=(\S+)"
        r" refactorizations=(\d+) max_eta=(\d+)",
        text,
    ):
        points.append(
            {
                "n": int(m.group(1)),
                "backend": m.group(2),
                "certified": bool(int(m.group(3))),
                "consults_per_s": float(m.group(4)),
                "iterations": int(m.group(5)),
                "basis_nnz": int(m.group(6)),
                "lu_nnz": int(m.group(7)),
                "fill_ratio": float(m.group(8)),
                "refactorizations": int(m.group(9)),
                "max_eta": int(m.group(10)),
            }
        )
    speed = re.search(r"LPSCALE revised_vs_cold_chain_n100=(\S+)", text)
    if not points or not speed:
        raise SystemExit(f"no LPSCALE sweep lines found in {path}")
    return {"points": points, "revised_vs_cold_chain_n100": float(speed.group(1))}


def parse_warmstart(path):
    with open(path) as f:
        text = f.read()
    m = re.search(
        r"WARMSTART theta_max_diff=(\S+) cold_iters=(\d+) warm_iters=(\d+) iter_ratio=(\S+)",
        text,
    )
    if not m:
        raise SystemExit(f"no WARMSTART summary line found in {path}")
    return {
        "theta_max_diff": float(m.group(1)),
        "cold_iters": int(m.group(2)),
        "warm_iters": int(m.group(3)),
        "iter_ratio": float(m.group(4)),
    }


def parse_certify(path):
    with open(path) as f:
        text = f.read()
    m = re.search(
        r"CERTIFY overhead_pct=(\S+) certified_solves=(\d+)"
        r" fallbacks=(\d+) uncertified_grants=(\d+)",
        text,
    )
    if not m:
        raise SystemExit(f"no CERTIFY summary line found in {path}")
    return {
        "certify_overhead_pct": float(m.group(1)),
        "certified_solves": int(m.group(2)),
        "fallbacks": int(m.group(3)),
        "uncertified_grants": int(m.group(4)),
    }


def cmake_build_type(build_dir):
    """CMAKE_BUILD_TYPE (lower-cased) from the build directory's CMakeCache.txt."""
    path = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(path) as f:
            for line in f:
                m = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)$", line.strip())
                if m:
                    return m.group(1).lower() or "unknown"
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e}")
    return "unknown"


def main(argv):
    if len(argv) != 9:
        raise SystemExit(__doc__)
    lp_benches, context = load_benchmarks(argv[2])
    warm_benches, _ = load_benchmarks(argv[4])
    certify_benches, _ = load_benchmarks(argv[6])
    doc = {
        "schema": "agora-bench-lp/3",
        "build_type": cmake_build_type(argv[1]),
        "benchmark_library_build_type": context.get("library_build_type", "unknown"),
        "num_cpus": context.get("num_cpus", 0),
        "benchmarks": lp_benches + warm_benches + certify_benches,
        "scaling": parse_lpscale(argv[3]),
        "warmstart": parse_warmstart(argv[5]),
        "certify": parse_certify(argv[7]),
    }
    with open(argv[8], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {argv[8]}")


if __name__ == "__main__":
    main(sys.argv)
