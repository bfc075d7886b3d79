#!/usr/bin/env python3
"""Merge the enforcement-engine bench fragments into BENCH_engine.json.

Usage: bench_engine_json.py <build_dir> <scale_shards.json> <scale_hotpath.json> <out.json>

scale_shards (shard-count sweep) and scale_hotpath (plan-cache sweep,
DESIGN.md section 13) each write a standalone JSON fragment; this
script nests them under a schema-versioned top level so the repo tracks one
engine bench file. A `host` block records where the numbers come from: the
online CPU count, agora's CMAKE_BUILD_TYPE and C++ compiler read from
<build_dir>, and the git revision of the checkout (with "-dirty" when it has
uncommitted changes). Only the Python standard library is used.

The acceptance gates are re-checked here so a bad merge can't slip into the
tracked file:
  * hot path (PR 7): certified_grant_pct must be 100 and the cache speedup
    over the baseline phase must be >= 10x;
  * federation: on the single-component sweep, 8 federated shards
    must beat the one exact shard of threads=1 by >= 3x, every threads>1
    point must be federated, every grant certified, and a finite measured
    optimality gap recorded.
"""

import glob
import json
import math
import os
import re
import subprocess
import sys

from bench_lp_json import cmake_build_type


def load(path):
    with open(path) as f:
        return json.load(f)


def cxx_compiler(build_dir):
    """'<id> <version>' of the C++ compiler CMake configured <build_dir> with."""
    found = {}
    pattern = os.path.join(build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")
    for path in glob.glob(pattern):
        with open(path) as f:
            for line in f:
                m = re.match(r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "(.*)"\)', line.strip())
                if m:
                    found[m.group(1)] = m.group(2)
    return f"{found.get('ID', 'unknown')} {found.get('VERSION', '')}".strip()


def git_revision():
    """Abbreviated sha of the checkout, suffixed "-dirty" for uncommitted changes."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        r = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty", "--abbrev=12"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main(argv):
    if len(argv) != 5:
        raise SystemExit(__doc__)
    build_dir = argv[1]
    shards = load(argv[2])
    hotpath = load(argv[3])

    if hotpath.get("certified_grant_pct") != 100.0:
        raise SystemExit("hotpath sweep reports uncertified grants")
    speedup = hotpath.get("speedup_cache_vs_baseline", 0.0)
    if speedup < 10.0:
        raise SystemExit(f"hotpath cache speedup {speedup:.1f}x below the 10x acceptance bound")

    single = shards.get("single_component")
    if not single:
        raise SystemExit("scale_shards fragment lacks the single_component sweep")
    fed_speedup = single.get("speedup_fed_8_vs_1", 0.0)
    if fed_speedup < 3.0:
        raise SystemExit(
            f"federated 8-vs-1 shard speedup {fed_speedup:.2f}x below the 3x acceptance bound")
    gap_seen = False
    for pt in single.get("sweep", []):
        where = f"single_component point threads={pt.get('threads')}"
        if pt.get("certified_grant_pct") != 100.0:
            raise SystemExit(f"{where}: uncertified grants")
        if pt.get("threads", 1) > 1:
            if not pt.get("federated"):
                raise SystemExit(f"{where}: not federated")
            gap = pt.get("gap_max_rel")
            if not isinstance(gap, (int, float)) or not math.isfinite(gap) or gap < 0.0:
                raise SystemExit(f"{where}: no measured optimality gap recorded")
            gap_seen = True
    if not gap_seen:
        raise SystemExit("single_component sweep recorded no federated optimality gap")

    doc = {
        "schema": "agora-bench-engine/5",
        "host": {
            "nproc": os.cpu_count() or 0,
            "build_type": cmake_build_type(build_dir),
            "compiler": cxx_compiler(build_dir),
            "git": git_revision(),
        },
        "scale_shards": shards,
        "scale_hotpath": hotpath,
    }
    with open(argv[4], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {argv[4]}")


if __name__ == "__main__":
    main(sys.argv)
