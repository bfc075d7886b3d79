#!/usr/bin/env bash
# LP solver benchmark harness: builds micro_lp, micro_warmstart and
# micro_certify in Release, runs them, and merges the results into
# BENCH_lp.json at the repo root (iterations, ns/solve, allocs/solve, the
# warm-vs-cold-chain LPSCALE sweep from micro_lp, the warm-vs-cold iteration
# ratio from micro_warmstart's verification pass, and the certification
# overhead from micro_certify's A/B pass).
# Usage: tools/bench.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build-release
OUT=bench_results
mkdir -p "${OUT}"

cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD}" -j --target micro_lp micro_warmstart micro_certify scale_shards \
  scale_hotpath chaos_failover wire_loopback

# micro_lp runs the LPSCALE scaling sweep (warm revised at n in {100, 500,
# 1000}, the cold certified chain at n = 100) before its benchmark table and
# exits non-zero if any configuration fails to solve+certify or warm revised
# misses the >=10x consults/s bound over the cold chain at n = 100 -- set -e
# makes that the release gate here.
"./${BUILD}/bench/micro_lp" \
  --benchmark_out="${OUT}/micro_lp.json" --benchmark_out_format=json \
  | tee "${OUT}/lpscale_summary.txt"
# micro_warmstart prints its WARMSTART verification line (cold/warm pivot
# counts, theta agreement) before the benchmark table; keep it for the merge.
"./${BUILD}/bench/micro_warmstart" \
  --benchmark_out="${OUT}/micro_warmstart.json" --benchmark_out_format=json \
  | tee "${OUT}/warmstart_summary.txt"
# micro_certify prints its CERTIFY line (A/B overhead of solution
# certification on the warm consult sequence, zero-uncertified-grants
# invariant) the same way.
"./${BUILD}/bench/micro_certify" \
  --benchmark_out="${OUT}/micro_certify.json" --benchmark_out_format=json \
  | tee "${OUT}/certify_summary.txt"

python3 tools/bench_lp_json.py "${BUILD}" \
  "${OUT}/micro_lp.json" "${OUT}/lpscale_summary.txt" \
  "${OUT}/micro_warmstart.json" "${OUT}/warmstart_summary.txt" \
  "${OUT}/micro_certify.json" "${OUT}/certify_summary.txt" BENCH_lp.json

echo "bench: BENCH_lp.json written"

# Enforcement-engine sweeps: the shard-count sweep (1/2/4/8 shards,
# consults/sec + p50/p99 consult latency with a recorded p99 regression
# bound), its single-component federation sweep (one exact shard, then
# federated 2/4/8 shards over the ring-bridged economy, measured optimality
# gap per point),
# and the admission hot-path sweep (baseline vs plan cache on a Zipf s=1.1
# request mix; cache hit-rate, 100%-certified-grants gate). The merge script nests the fragments under
# the schema-versioned BENCH_engine.json with a host block read from the
# build directory, and enforces the >=10x cache-speedup and >=3x
# federated-shard-speedup acceptance bounds.
"./${BUILD}/bench/scale_shards" "${OUT}/scale_shards.json"
"./${BUILD}/bench/scale_hotpath" "${OUT}/scale_hotpath.json"
python3 tools/bench_engine_json.py "${BUILD}" \
  "${OUT}/scale_shards.json" "${OUT}/scale_hotpath.json" BENCH_engine.json

echo "bench: BENCH_engine.json written"

# Replicated-GRM failover: post-crash unavailability swept over raft seeds
# (acceptance bound: a few election timeouts) and the 1-vs-3-replica message
# amplification / latency overhead, all in deterministic bus virtual time.
# The binary exits non-zero if the bound is exceeded or replicas diverge.
"./${BUILD}/bench/chaos_failover" BENCH_rms.json

echo "bench: BENCH_rms.json written"

# Wire boundary: sustainable-rate calibration, 2x-overload shed behavior
# (explicit unavailable + retry-after, bounded p99 for the accepted
# consults), and graceful drain under live senders, all over loopback.
# The binary exits non-zero if an acceptance bound is violated.
"./${BUILD}/bench/wire_loopback" BENCH_net.json

echo "bench: BENCH_net.json written"
