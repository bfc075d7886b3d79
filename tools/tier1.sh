#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite twice,
# with the observability layer compiled in and compiled out, warnings
# failing both builds; build the whole tree in Release with warnings as
# errors; then rebuild the rms/chaos-sensitive tests under ASan+UBSan and
# the multithreaded ones under TSan, and run them.
# Usage: tools/tier1.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . -DAGORA_WERROR=ON
cmake --build build -j
# Two lanes that together run every test exactly once. The fast lane skips
# the suites labelled tier2-* (stress, soak, chaos, and the golden figures);
# `-j` takes a number here, because a bare `-j` would swallow the label
# filter and run everything. The second lane then runs the tier2-* suites
# serially: the golden figures replay small Figure 5/9/13 scenarios end to
# end through the allocator and its solver, so they guard any change of
# solver behaviour. Plain `ctest` still runs everything in one go.
(cd build && ctest --output-on-failure -j"$(nproc)" -LE '^tier2-')
(cd build && ctest --output-on-failure -L '^tier2-')

# The same two lanes with the observability layer compiled out
# (AGORA_OBS=OFF). Every stats() struct keeps counting there while the
# registry reads 0 (facade_test checks both), and the obs-only tests skip
# themselves.
cmake -B build-noobs -S . -DAGORA_OBS=OFF -DAGORA_WERROR=ON
cmake --build build-noobs -j
(cd build-noobs && ctest --output-on-failure -j"$(nproc)" -LE '^tier2-')
(cd build-noobs && ctest --output-on-failure -L '^tier2-')

# A Release build (-O3) of the whole tree, warnings failing it. This lane
# only builds; the test lanes above stay RelWithDebInfo. Some warnings show
# only when -O3 inlines more, and tools/bench.sh and perfbench both compile
# in Release.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DAGORA_WERROR=ON
cmake --build build-release -j

# Sanitizer pass over the message-layer tests (the fault-injection code
# paths -- drops, duplicate frees of envelopes, restart handlers -- are the
# ones most likely to hide lifetime bugs), the replicated-GRM suites
# (rms_replica_test plus the tier2-chaos failover suite, whose crash/
# partition/loss scenarios churn raft timers and snapshots) and the LP
# certification, adversarial and sparse-basis suites (ill-conditioned
# pivoting, deliberately corrupted workspaces, and the sparse LU's bucketed
# pivot search / eta-file replay -- index-heavy code where out-of-bounds
# reads and UB would hide), the known-answer and shadow-price suites
# (lp_test, lp_duals_test: every textbook LP through the sparse factors),
# the random-LP property suite (lp_property_test: the revised simplex, the
# only simplex, against the brute-force oracle and the Verifier), plus the
# warm-start and allocator suites
# (workspaces carried across solves, component-local models scattered back
# into global index space; alloc_test and alloc_property_test pin the
# per-component availability refresh, whose entitlement blocks are indexed
# by component members, and the closed-form denials, whose Farkas vector
# addresses the standard form's rows by layout), and the engine suites
# (engine_test, engine_stress_test: the engine starts no threads, so every
# consult and mutation runs the shard's allocator, credit table and gap
# ring on whichever caller thread holds its run lock, and those objects'
# lifetimes span the threads the tests drive), and the proxy
# simulator suites (proxysim_test, proxysim_bridge_test: arrivals stream from
# per-proxy cursors into the traces and delayed decisions keep their budgets
# in a flat side store addressed by slot, both index-heavy code where an
# out-of-bounds read would otherwise go unseen), and the public-facade suite
# (facade_test: it drives every backend's capacity writes -- the direct
# Allocator, the HierarchicalAllocator and engines on one and two shards --
# through the one capacity rule, malformed writes and a seeded conservation
# stream included, so a write path that reads or stores out of step with the
# rule shows up here), and the trace suite (trace_test: the generator
# orders each slot with a radix sort over packed (draw, index) keys and
# gathers records through those indices, index arithmetic where an
# off-by-one would read past a slot), and the input-parser suite (io_test:
# the in-process parsers of outside input, Flags over argv and
# core::read_economy over spec files, where a malformed token is exactly
# what would read past a buffer). The sanitizer build
# compiles with -ffp-contract=off so its floating-point results match the
# tier-1 build bit for bit.
cmake -B build-asan -S . -DAGORA_SANITIZE=ON
cmake --build build-asan -j --target rms_test rms_chaos_test rms_replica_test \
  rms_failover_test fuzz_test lp_test lp_duals_test lp_property_test lp_certify_test \
  lp_adversarial_test lp_sparse_test lp_warmstart_test alloc_test alloc_property_test \
  alloc_components_test engine_test engine_stress_test engine_cache_test \
  engine_federation_test credit_conservation_test federation_chaos_test net_frame_test net_service_test \
  net_soak_test proxysim_test proxysim_bridge_test facade_test trace_test io_test
./build-asan/tests/rms_test
./build-asan/tests/rms_chaos_test
./build-asan/tests/rms_replica_test
./build-asan/tests/rms_failover_test
./build-asan/tests/fuzz_test
./build-asan/tests/lp_test
./build-asan/tests/lp_duals_test
./build-asan/tests/lp_property_test
./build-asan/tests/lp_certify_test
./build-asan/tests/lp_adversarial_test
./build-asan/tests/lp_sparse_test
./build-asan/tests/lp_warmstart_test
./build-asan/tests/alloc_test
./build-asan/tests/alloc_property_test
./build-asan/tests/alloc_components_test
./build-asan/tests/engine_test
./build-asan/tests/engine_stress_test
./build-asan/tests/engine_cache_test
# Federation suites under ASan/UBSan: the credit ledger's settle/consume
# arithmetic, the border-bank allocator rebuilds, and the chaos harness's
# envelope lifetimes are the new lifetime-sensitive surface.
./build-asan/tests/engine_federation_test
./build-asan/tests/credit_conservation_test
./build-asan/tests/federation_chaos_test
# Wire boundary under ASan/UBSan: the frame-decoder fuzz corpus (bit flips,
# truncations, version skew -- exactly where over-reads would hide), the
# live loopback service suite (partial I/O, drain, malformed peers), and
# the tier2 soak with its crash/restart window.
./build-asan/tests/net_frame_test
./build-asan/tests/net_service_test
./build-asan/tests/net_soak_test
./build-asan/tests/proxysim_test
./build-asan/tests/proxysim_bridge_test
./build-asan/tests/facade_test
./build-asan/tests/trace_test
./build-asan/tests/io_test

# ThreadSanitizer pass over the deliberately multithreaded code: the
# concurrent observability substrate (metrics registry, lock-free EventRing
# and its multithreaded hammer test), the sharded enforcement engine (run
# locks taken by caller threads, snapshot publication, the unchanged-shard
# skip -- engine_test pins the serial semantics, engine_stress_test
# hammers it with producer/mutator threads),
# and the rms chaos suite, whose fault-injection paths exercise the bus
# under the heaviest event/metric traffic. engine_cache_test joins both
# passes: the plan cache's spinlocked slots (shared_ptr copies racing
# in-place overwrites) and the caller-thread hit path racing capacity
# mutations are exactly the code TSan is for, and the hammer test drives
# them hard.
cmake -B build-tsan -S . -DAGORA_TSAN=ON
cmake --build build-tsan -j --target obs_test rms_chaos_test rms_failover_test \
  engine_test engine_stress_test engine_cache_test engine_federation_test \
  federation_chaos_test net_service_test net_soak_test
./build-tsan/tests/obs_test
./build-tsan/tests/rms_chaos_test
./build-tsan/tests/rms_failover_test
./build-tsan/tests/engine_test
./build-tsan/tests/engine_stress_test
./build-tsan/tests/engine_cache_test
# Federated engine under TSan: consults run against border banks while
# mutators settle credits and swap shard allocators under the run locks --
# exactly the cross-thread handoff (rebuilds, credit tables, gap rings)
# this pass is for.
./build-tsan/tests/engine_federation_test
./build-tsan/tests/federation_chaos_test
# The wire service under TSan: its poll-loop thread hands every consult to
# the one pump thread that calls the backend (net_service_test, whose
# client threads race the loop through the admission queue, the pump's
# queue, in-flight futures and the relaxed-atomic counts behind stats()),
# and net_soak_test, which drains and destroys a service and its engine
# while clients churn and then restarts both on the same port, so the old
# pump's close and join and the new pump's start race live client traffic.
./build-tsan/tests/net_service_test
./build-tsan/tests/net_soak_test

echo "tier1: all green"
echo "tier1: LP perf numbers (BENCH_lp.json) are produced by tools/bench.sh"
