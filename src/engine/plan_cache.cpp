#include "engine/plan_cache.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace agora::engine {

namespace {

/// -0.0 and +0.0 are the same request; all other finite doubles key by their
/// exact bit pattern (the engine rejects NaN/inf amounts before the cache).
std::uint64_t amount_bits(double amount) {
  return std::bit_cast<std::uint64_t>(amount == 0.0 ? 0.0 : amount);
}

/// splitmix64 finalizer: cheap, well-distributed, and deterministic across
/// platforms (the cache index must not depend on std::hash quality).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint8_t kHotRef = 3;
/// Negative entries start colder than grants: when a grant and a denial
/// compete for the same probe window, the denial is evicted first -- most
/// denials are decided in closed form without an LP, while every replayed
/// grant saves an LP solve.
constexpr std::uint8_t kNegRef = 1;

}  // namespace

std::shared_ptr<const PlanCache::Entry> PlanCache::Slot::load() const {
  while (busy.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
  std::shared_ptr<const Entry> e = entry;
  busy.store(false, std::memory_order_release);
  return e;
}

void PlanCache::Slot::store(std::shared_ptr<const Entry> next) {
  while (busy.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
  entry.swap(next);
  busy.store(false, std::memory_order_release);
}

PlanCache::PlanCache(PlanCacheOptions opts, const obs::Sink& sink)
    : misses_(sink.counter("engine.plan_cache.misses")),
      stale_(sink.counter("engine.plan_cache.stale")) {
  std::size_t n = std::bit_ceil(std::max<std::size_t>(opts.slots, 64));
  probe_ = std::max<std::size_t>(1, std::min(opts.probe_window, n));
  mask_ = n - 1;
  slots_ = std::vector<Slot>(n);
}

std::size_t PlanCache::base_index(std::size_t participant, double amount) const {
  const std::uint64_t h =
      mix(static_cast<std::uint64_t>(participant) ^ mix(amount_bits(amount)));
  return static_cast<std::size_t>(h) & mask_;
}

PlanCache::LookupResult PlanCache::lookup(std::uint64_t epoch, std::size_t participant,
                                          double amount) {
  const std::size_t base = base_index(participant, amount);
  const std::uint64_t bits = amount_bits(amount);
  for (std::size_t i = 0; i < probe_; ++i) {
    Slot& slot = slots_[(base + i) & mask_];
    std::shared_ptr<const Entry> e = slot.load();
    if (!e) continue;
    if (e->participant != participant || amount_bits(e->amount) != bits) continue;
    // insert() overwrites a matching shape in place, so the first shape
    // match in the window is THE entry for this key: no need to probe on.
    if (e->epoch != epoch) {
      stale_.inc();
      return {nullptr, Outcome::Stale};
    }
    slot.ref.store(e->negative() ? kNegRef : kHotRef, std::memory_order_relaxed);
    (e->negative() ? neg_hits_ : hits_).inc();
    return {std::move(e), Outcome::Hit};
  }
  misses_.inc();
  return {nullptr, Outcome::Miss};
}

void PlanCache::insert(std::uint64_t epoch, std::size_t participant, double amount,
                       const alloc::AllocationPlan& plan) {
  auto entry = std::make_shared<Entry>();
  entry->epoch = epoch;
  entry->participant = participant;
  entry->amount = amount;
  entry->plan = plan;
  entry->nz.reserve(4);
  for (std::size_t k = 0; k < plan.draw.size(); ++k)
    if (plan.draw[k] != 0.0) entry->nz.push_back(static_cast<std::uint32_t>(k));
  const bool negative = entry->negative();
  const std::uint8_t fresh_ref = negative ? kNegRef : kHotRef;

  const std::size_t base = base_index(participant, amount);
  const std::uint64_t bits = amount_bits(amount);
  std::size_t victim = base & mask_;
  std::uint8_t victim_ref = 0xff;
  bool victim_empty = false;
  for (std::size_t i = 0; i < probe_; ++i) {
    const std::size_t idx = (base + i) & mask_;
    Slot& slot = slots_[idx];
    std::shared_ptr<const Entry> e = slot.load();
    if (e && e->participant == participant && amount_bits(e->amount) == bits) {
      // Same shape (fresh or stale): refresh in place.
      slot.store(std::move(entry));
      slot.ref.store(fresh_ref, std::memory_order_relaxed);
      (negative ? neg_inserts_ : inserts_).inc();
      return;
    }
    if (!e) {
      if (!victim_empty) {
        victim = idx;
        victim_empty = true;
      }
      continue;
    }
    // LRU clock: every insert scan passing over a live slot decays its
    // recency; lookups re-arm it. The coldest slot in the window loses.
    std::uint8_t r = slot.ref.load(std::memory_order_relaxed);
    if (r > 0) slot.ref.store(r - 1, std::memory_order_relaxed);
    if (!victim_empty && r < victim_ref) {
      victim = idx;
      victim_ref = r;
    }
  }
  Slot& slot = slots_[victim];
  if (!victim_empty) {
    // Attribute the eviction to the polarity of the DISPLACED entry, so the
    // counters answer "are denials crowding out grants?" directly.
    std::shared_ptr<const Entry> old = slot.load();
    (old && old->negative() ? neg_evictions_ : evictions_).inc();
  }
  slot.store(std::move(entry));
  slot.ref.store(fresh_ref, std::memory_order_relaxed);
  (negative ? neg_inserts_ : inserts_).inc();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.stale = stale_.value();
  s.inserts = inserts_.value();
  s.evictions = evictions_.value();
  s.certify_rejects = certify_rejects_.value();
  s.neg_hits = neg_hits_.value();
  s.neg_inserts = neg_inserts_.value();
  s.neg_evictions = neg_evictions_.value();
  return s;
}

}  // namespace agora::engine
