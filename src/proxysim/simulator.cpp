#include "proxysim/simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>

#include "proxysim/scheduler_bridge.h"
#include "util/error.h"

namespace agora::proxysim {

namespace {

struct Job {
  double arrival = 0.0;  ///< original arrival time (for wait attribution)
  double demand = 0.0;   ///< unit-power service seconds (incl. redirect cost)
  std::uint32_t origin = 0;
  bool redirected = false;
};

struct ProxyState {
  std::deque<Job> queue;
  double queued_demand = 0.0;  ///< sum of demands in queue
  bool busy = false;
  double busy_until = 0.0;
  double last_consult = -std::numeric_limits<double>::infinity();

  void push(Job j) {
    queued_demand += j.demand;
    queue.push_back(j);
  }
  Job pop_front() {
    Job j = queue.front();
    queue.pop_front();
    queued_demand -= j.demand;
    return j;
  }
  Job pop_back() {
    Job j = queue.back();
    queue.pop_back();
    queued_demand -= j.demand;
    return j;
  }
};

// Arrivals never enter the event heap (see Simulator::run), so it holds only
// completions, at most one per proxy, and delayed decisions.
enum class EventKind : std::uint8_t { Completion = 0, Decision = 1 };

struct Event {
  double time;
  std::uint64_t seq;       ///< creation order: tie-break for determinism
  std::uint32_t proxy;
  std::uint32_t decision;  ///< Decision: slot of its budgets in the side store
  EventKind kind;

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (kind != o.kind) return kind > o.kind;  // completions first
    return seq > o.seq;
  }
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 32);

}  // namespace

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg)) {
  AGORA_REQUIRE(cfg_.num_proxies > 0, "need at least one proxy");
  AGORA_REQUIRE(cfg_.horizon > 0.0 && cfg_.slot_width > 0.0, "bad horizon/slot width");
  AGORA_REQUIRE(cfg_.power.empty() || cfg_.power.size() == cfg_.num_proxies,
                "power vector must match proxy count");
  AGORA_REQUIRE(cfg_.redirect_cost >= 0.0, "redirect cost must be non-negative");
}

SimMetrics Simulator::run(const std::vector<std::vector<trace::TraceRequest>>& traces) {
  AGORA_REQUIRE(traces.size() == cfg_.num_proxies, "one trace per proxy required");
  const std::size_t n = cfg_.num_proxies;

  SimMetrics metrics(cfg_.horizon, cfg_.slot_width, n);

  // Run-local trace ring: the simulator's events (and, via the repointed
  // allocator sink, the LP solve chain's events) land in one per-run stream
  // in virtual-time order, isolated from other runs and deterministic under
  // identical seeds. Registry metrics still go wherever cfg_.sink points.
  obs::EventRing ring(cfg_.event_ring_capacity);
  obs::Sink sink = cfg_.sink;
  sink.events = &ring;
  cfg_.alloc_opts.sink = sink;

  SchedulerBridge scheduler(cfg_);
  std::vector<ProxyState> proxies(n);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  // Budgets of delayed decisions, n per decision, and the slots of the ones
  // already applied (reused before the store grows).
  std::vector<double> budgets;
  std::vector<std::uint32_t> free_budgets;

  // Validate the traces and derive the per-slot request counts and each
  // proxy's known demand curve (cumulative arriving work over time, used to
  // report honest spare capacity to the scheduler).
  const std::size_t num_slots = metrics.requests_by_slot.size();
  std::vector<std::vector<double>> work_prefix(n, std::vector<double>(num_slots + 1, 0.0));
  for (std::size_t p = 0; p < n; ++p) {
    double prev = 0.0;
    for (const auto& r : traces[p]) {
      AGORA_REQUIRE(std::isfinite(r.arrival) && r.arrival >= 0.0,
                    "arrival times must be finite and non-negative");
      AGORA_REQUIRE(r.arrival >= prev, "trace must be sorted by arrival");
      prev = r.arrival;
      auto slot = static_cast<std::size_t>(r.arrival / cfg_.slot_width);
      if (slot >= num_slots) slot = num_slots - 1;
      ++metrics.requests_by_slot[slot];
      ++metrics.total_requests;
      work_prefix[p][slot + 1] += cfg_.cost.demand(r.response_bytes);
    }
    for (std::size_t s = 0; s < num_slots; ++s) work_prefix[p][s + 1] += work_prefix[p][s];
  }

  // Expected demand arriving at proxy p during [t0, t1), interpolating the
  // per-slot demand curve (zero past the horizon -- the trace is known).
  const auto expected_work = [&](std::size_t p, double t0, double t1) {
    const auto cum = [&](double t) {
      if (t <= 0.0) return 0.0;
      if (t >= cfg_.horizon) return work_prefix[p][num_slots];
      const double pos = t / cfg_.slot_width;
      const auto s = std::min(static_cast<std::size_t>(pos), num_slots - 1);
      const double frac = pos - static_cast<double>(s);
      return work_prefix[p][s] + frac * (work_prefix[p][s + 1] - work_prefix[p][s]);
    };
    return std::max(0.0, cum(t1) - cum(t0));
  };

  const auto record_wait = [&](const Job& j, double start_time) {
    const double wait = start_time - j.arrival;
    metrics.wait_by_slot.add(j.arrival, wait);
    metrics.wait_by_slot_per_proxy[j.origin].add(j.arrival, wait);
    metrics.wait_overall.add(wait);
    metrics.per_proxy_wait[j.origin].add(wait);
    metrics.wait_histogram.add(wait);
  };

  const auto slot_of = [&](double t) {
    auto s = static_cast<std::size_t>(std::max(t, 0.0) / cfg_.slot_width);
    return std::min(s, metrics.requests_by_slot.size() - 1);
  };

  const auto try_start = [&](std::size_t p, double now) {
    ProxyState& st = proxies[p];
    if (st.busy || st.queue.empty()) return;
    const Job j = st.pop_front();
    record_wait(j, now);
    sink.event(now, obs::EventKind::RequestAdmitted, static_cast<std::uint32_t>(p), j.origin,
               now - j.arrival, j.demand);
    st.busy = true;
    st.busy_until = now + j.demand / cfg_.proxy_power(p);
    events.push(Event{st.busy_until, seq++, static_cast<std::uint32_t>(p), 0,
                      EventKind::Completion});
  };

  // Spare capacity over the scheduling epoch, in unit-power demand seconds:
  // the window's processing budget minus the current backlog minus the
  // proxy's own expected arrivals within the window.
  const auto spare_capacity = [&](double now) {
    std::vector<double> spare(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double busy_left = proxies[k].busy ? std::max(0.0, proxies[k].busy_until - now) : 0.0;
      double committed = proxies[k].queued_demand + busy_left * cfg_.proxy_power(k);
      if (cfg_.spare_includes_forecast)
        committed += expected_work(k, now, now + cfg_.planning_window);
      spare[k] = std::max(0.0, cfg_.planning_window * cfg_.proxy_power(k) - committed);
    }
    return spare;
  };

  // Apply a scheduler decision for overloaded proxy p: absorb[k] is the
  // demand proxy k should take over (n entries).
  const auto apply_decision = [&](std::size_t p, const double* absorb, double now) {
    ProxyState& st = proxies[p];
    const double power = cfg_.proxy_power(p);

    // Move jobs from the back of the queue (the ones that would wait the
    // longest) to the absorbing proxies, never re-redirecting a job. Each
    // donor's budget is additionally capped by the *wait benefit*: moving
    // more than equalizes the two backlogs (net of the redirection cost)
    // makes the moved request worse off -- the paper's justification for
    // redirection is precisely that "without redirection this request would
    // suffer much longer delay". Without this cap a saturated system churns
    // work between equally busy proxies, paying the overhead every time.
    for (std::size_t k = 0; k < n; ++k) {
      if (k == p) continue;
      double budget = absorb[k];
      if (budget <= 1e-12) continue;
      if (scheduler.kind() == SchedulerKind::Lp && cfg_.wait_benefit_cap) {
        // Only the centralized scheme knows donor backlogs; the endpoint
        // baseline redirects blindly (that asymmetry is Figure 13's point).
        const double donor_power = cfg_.proxy_power(k);
        const double donor_busy_left =
            proxies[k].busy ? std::max(0.0, proxies[k].busy_until - now) : 0.0;
        const double wait_p = st.queued_demand / power;
        const double wait_k = proxies[k].queued_demand / donor_power + donor_busy_left;
        const double equalize = 0.5 * (wait_p - wait_k - cfg_.redirect_cost);
        budget = std::min(budget, std::max(0.0, equalize * donor_power));
        if (budget <= 1e-12) continue;
      }
      // Scan from the back for movable jobs.
      std::deque<Job> skipped;
      while (budget > 1e-12 && !st.queue.empty()) {
        Job j = st.pop_back();
        // The redirection overhead is work the donor must perform too, so
        // it counts against the granted budget -- otherwise donors receive
        // (1 + cost/mean_demand) times what the scheduler allotted and the
        // whole system spirals into overload.
        const double landed_demand = j.demand + cfg_.redirect_cost;
        // The LP scheme never needs to move a request twice (it placed it
        // where capacity provably existed); the blind endpoint scheme has
        // no such knowledge, so a misdirected request may be redistributed
        // again -- and keeps paying the cost each hop.
        const bool movable =
            !j.redirected || scheduler.kind() == SchedulerKind::Endpoint;
        if (!movable || landed_demand > budget + 1e-9) {
          skipped.push_front(j);
          continue;
        }
        budget -= landed_demand;
        j.redirected = true;
        j.demand += cfg_.redirect_cost;
        ++metrics.redirected_requests;
        metrics.redirected_demand += j.demand;
        sink.event(now, obs::EventKind::RequestRedirected, static_cast<std::uint32_t>(p),
                   static_cast<std::uint32_t>(k), j.demand, cfg_.redirect_cost);
        auto slot = static_cast<std::size_t>(
            std::min(j.arrival, cfg_.horizon - 1e-9) / cfg_.slot_width);
        if (slot >= metrics.redirected_by_slot.size())
          slot = metrics.redirected_by_slot.size() - 1;
        ++metrics.redirected_by_slot[slot];
        proxies[k].push(j);
        try_start(k, now);
      }
      for (Job& j : skipped) st.push(j);
    }
  };

  const auto maybe_consult = [&](std::size_t p, double now) {
    if (scheduler.kind() == SchedulerKind::None) return;
    ProxyState& st = proxies[p];
    const double power = cfg_.proxy_power(p);
    if (st.queued_demand / power <= cfg_.queue_threshold) return;
    if (now - st.last_consult < cfg_.consult_cooldown) return;
    st.last_consult = now;
    ++metrics.scheduler_consults;
    ++metrics.consults_by_slot[slot_of(now)];

    // After redirection the proxy keeps this fraction of the threshold
    // queued locally.
    constexpr double kKeepLocalFraction = 0.5;
    const double keep = kKeepLocalFraction * cfg_.queue_threshold * power;
    const double overflow = st.queued_demand - keep;
    if (overflow <= 0.0) return;
    sink.event(now, obs::EventKind::ConsultStarted, static_cast<std::uint32_t>(p), 0, overflow);

    // The origin's reported spare must exclude the overflow it is trying to
    // shed (but keep its expected arrivals), otherwise the LP sees the
    // origin as saturated and dumps the whole overflow remotely instead of
    // balancing local vs remote load.
    std::vector<double> spare = spare_capacity(now);
    const double busy_left = st.busy ? std::max(0.0, st.busy_until - now) : 0.0;
    spare[p] = std::max(
        0.0, cfg_.planning_window * power - keep - busy_left * power -
                 (cfg_.spare_includes_forecast
                      ? expected_work(p, now, now + cfg_.planning_window)
                      : 0.0));

    RedirectDecision dec = scheduler.plan(p, overflow, spare);
    metrics.lp_iterations += dec.lp_iterations;
    metrics.solver_fallbacks += dec.solver_fallbacks;
    if (dec.certified) ++metrics.certified_consults;
    if (dec.degraded_local) {
      ++metrics.degraded_consults;
      ++metrics.degraded_by_slot[slot_of(now)];
      sink.event(now, obs::EventKind::ConsultDegraded, static_cast<std::uint32_t>(p), 0,
                 overflow);
    }

    if (cfg_.decision_latency > 0.0) {
      // Centralized scheduling has a round trip: the decision was computed
      // against now-current state but takes effect only after the latency.
      std::uint32_t slot;
      if (free_budgets.empty()) {
        slot = static_cast<std::uint32_t>(budgets.size() / n);
        budgets.resize(budgets.size() + n);
      } else {
        slot = free_budgets.back();
        free_budgets.pop_back();
      }
      std::copy(dec.absorb.begin(), dec.absorb.end(), budgets.begin() + slot * n);
      events.push(Event{now + cfg_.decision_latency, seq++, static_cast<std::uint32_t>(p), slot,
                        EventKind::Decision});
      return;
    }
    apply_decision(p, dec.absorb.data(), now);
  };

  // Arrivals stream from one cursor per proxy into its sorted trace, taken
  // by (time, proxy) from a heap of the n cursors, and never enter the event
  // heap. The merged order is the (time, kind, seq) key of one queue holding
  // every event, with Completion < Arrival < Decision and arrivals numbered
  // by (proxy, trace index) ahead of all other events: at equal times an
  // arrival goes before the event heap's top only when that is a Decision.
  using Cursor = std::pair<double, std::uint32_t>;  // (next arrival, proxy)
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> arrivals;
  std::vector<std::size_t> cursor(n, 0);
  for (std::size_t p = 0; p < n; ++p)
    if (!traces[p].empty())
      arrivals.push({traces[p].front().arrival, static_cast<std::uint32_t>(p)});

  while (!arrivals.empty() || !events.empty()) {
    const bool arrival_next =
        !arrivals.empty() &&
        (events.empty() || arrivals.top().first < events.top().time ||
         (arrivals.top().first == events.top().time &&
          events.top().kind == EventKind::Decision));
    if (arrival_next) {
      const auto [now, p] = arrivals.top();
      arrivals.pop();
      const trace::TraceRequest& r = traces[p][cursor[p]++];
      if (cursor[p] < traces[p].size()) arrivals.push({traces[p][cursor[p]].arrival, p});
      proxies[p].push(Job{now, cfg_.cost.demand(r.response_bytes), p, false});
      try_start(p, now);
      maybe_consult(p, now);
      continue;
    }
    const Event ev = events.top();
    events.pop();
    switch (ev.kind) {
      case EventKind::Completion: {
        proxies[ev.proxy].busy = false;
        try_start(ev.proxy, ev.time);
        // Re-check the backlog: without this, a proxy whose arrivals have
        // stopped would never consult again no matter how long its queue is.
        maybe_consult(ev.proxy, ev.time);
        break;
      }
      case EventKind::Decision: {
        apply_decision(ev.proxy, budgets.data() + std::size_t{ev.decision} * n, ev.time);
        free_budgets.push_back(ev.decision);
        break;
      }
    }
  }

  for (const auto& st : proxies)
    AGORA_INVARIANT(st.queue.empty() && !st.busy, "simulation ended with unserved work");

  // Snapshot the run's trace and mirror the headline totals into the
  // registry (SimMetrics remains the authoritative per-run record; the
  // registry view is what --metrics-out and long-lived processes export).
  metrics.events = ring.snapshot();
  metrics.events_overwritten = ring.overwritten();
  if constexpr (obs::kEnabled) {
    sink.counter("sim.requests.total").inc(metrics.total_requests);
    sink.counter("sim.requests.redirected").inc(metrics.redirected_requests);
    sink.counter("sim.consults").inc(metrics.scheduler_consults);
    sink.counter("sim.consults.certified").inc(metrics.certified_consults);
    sink.counter("sim.consults.degraded").inc(metrics.degraded_consults);
    sink.counter("sim.lp_iterations").inc(metrics.lp_iterations);
    sink.counter("sim.solver_fallbacks").inc(metrics.solver_fallbacks);
    sink.counter("sim.events.overwritten").inc(metrics.events_overwritten);
    sink.gauge("sim.wait.mean_seconds").set(metrics.mean_wait());
    sink.gauge("sim.wait.peak_slot_seconds").set(metrics.peak_slot_wait());
    sink.gauge("sim.redirected_fraction").set(metrics.redirected_fraction());
  }
  return metrics;
}

}  // namespace agora::proxysim
