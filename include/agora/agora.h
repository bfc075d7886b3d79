// agora.h -- the single public facade of libagora.
//
// This header re-exports the SUPPORTED surface of the library; everything
// under src/ not reachable from here is an internal implementation detail
// and may change without notice between versions. Link against the `agora`
// interface target (or the per-subsystem static libraries it aggregates)
// and include only this header:
//
//   #include <agora/agora.h>
//
//   agora::agree::AgreementSystem sys(8);
//   sys.capacity.assign(8, 10.0);
//   sys.relative = agora::agree::complete_graph(8, 0.1);
//
//   // Either decision backend behind one interface:
//   std::unique_ptr<agora::alloc::AllocatorBase> direct =
//       std::make_unique<agora::alloc::Allocator>(sys);
//   std::unique_ptr<agora::alloc::AllocatorBase> sharded =
//       std::make_unique<agora::engine::EnforcementEngine>(
//           sys, agora::engine::EngineOptions{.threads = 4});
//
//   auto plan = sharded->allocate(/*principal=*/2, /*amount=*/5.0);
//   if (plan.satisfied()) sharded->apply(plan);
//
// The supported surface, by subsystem:
//
//   * Errors & status  -- agora::Status / StatusCode (the one error
//     currency, DESIGN.md §11.5) and the util/error.h exception types every
//     public entry point may throw.
//   * Economy building -- agree::AgreementSystem plus the topology
//     constructors (complete_graph, ring, distance_decay, sparse_random,
//     hierarchical) and capacity/entitlement reports.
//   * Allocation       -- alloc::AllocatorBase (the interface), the flat
//     LP Allocator, the two-level HierarchicalAllocator, and
//     AllocationPlan/PlanStatus.
//   * Enforcement at scale -- engine::EnforcementEngine: sharded,
//     thread-safe admission that starts no threads (consult() on the
//     caller's thread under a per-shard run lock, epoch-versioned capacity
//     snapshots).
//   * Trace IO         -- the proxy-workload generator and trace
//     reader/writer used by the case-study reproductions.
//   * Observability    -- metrics registry, trace-event ring, and the
//     snapshot exporter (CSV / JSON lines).
#pragma once

// Errors & status.
#include "util/error.h"
#include "util/status.h"

// Economy building: ticket/currency expression (core), the enforcement
// layer's matrix view (agree), and the lowering between them.
#include "agree/capacity.h"
#include "agree/from_economy.h"
#include "agree/matrices.h"
#include "agree/topology.h"
#include "agree/transitive.h"
#include "core/economy.h"
#include "core/valuation.h"

// Allocation.
#include "alloc/allocator.h"
#include "alloc/allocator_base.h"
#include "alloc/hierarchical.h"
#include "alloc/plan.h"

// Enforcement at scale.
#include "engine/engine.h"

// The wire boundary: framed loopback RPC service over the engine, and the
// failover-aware client (DESIGN.md §14).
#include "net/client.h"
#include "net/service.h"

// Trace IO.
#include "trace/generator.h"
#include "trace/trace_io.h"

// Observability.
#include "obs/export.h"
#include "obs/sink.h"
