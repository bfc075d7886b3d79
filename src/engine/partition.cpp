#include "engine/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "util/error.h"

namespace agora::engine {

namespace {

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

/// Agglomerated clusters, each ascending, ordered by smallest member for
/// determinism (the same convention as agree::connected_components).
std::vector<std::vector<std::size_t>> collect_groups(std::vector<std::size_t>& parent) {
  const std::size_t n = parent.size();
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find_root(parent, i);
    if (group_of[r] == n) {
      group_of[r] = groups.size();
      groups.emplace_back();
    }
    groups[group_of[r]].push_back(i);  // ascending: i is visited in order
  }
  return groups;
}

/// LPT bin-packing of groups onto `part.shards` shards: largest group first
/// onto the least-loaded shard, ties toward the lower shard id.
void pack_groups(const std::vector<std::vector<std::size_t>>& groups, Partition& part) {
  part.members.assign(part.shards, {});
  part.shard_of.assign(part.shard_of.size(), 0);
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return groups[a].size() > groups[b].size();
  });
  std::vector<std::size_t> load(part.shards, 0);
  for (const std::size_t g : order) {
    const std::size_t s = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[s] += groups[g].size();
    for (const std::size_t i : groups[g]) {
      part.members[s].push_back(i);
      part.shard_of[i] = s;
    }
  }
  // Local indices inside a shard follow the sorted global order so the
  // induced sub-system is independent of packing order.
  for (auto& m : part.members) std::sort(m.begin(), m.end());
}

/// Federated size balance: no shard exceeds ceil(n * (1 + kBalanceSlack) /
/// shards) participants. Larger slack lets heavier edges stay uncut at the
/// cost of load skew.
constexpr double kBalanceSlack = 0.25;

/// Min-cut-ish split for federated mode: heavy-edge agglomeration under a
/// size cap. Merging the heaviest agreement edges first keeps them inside a
/// shard, so the edges that end up cut -- and become border credits -- are
/// the lightest ones, which is what bounds the optimality gap in practice.
std::vector<std::vector<std::size_t>> agglomerate(const agree::AgreementSystem& sys,
                                                  std::size_t shards) {
  const std::size_t n = sys.size();
  const std::size_t cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) * (1.0 + kBalanceSlack) /
                                            static_cast<double>(shards))));

  // Absolute amounts live on the capacity scale; relative shares are
  // fractions. Normalize A by the mean capacity so both contribute
  // comparably to the edge weight.
  double mean_cap = 0.0;
  for (double v : sys.capacity) mean_cap += v;
  mean_cap = std::max(1.0, mean_cap / static_cast<double>(n));

  struct Edge {
    double weight;
    std::size_t i, j;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = sys.relative(i, j) + sys.relative(j, i) +
                       (sys.absolute(i, j) + sys.absolute(j, i)) / mean_cap;
      if (w > 0.0) edges.push_back(Edge{w, i, j});
    }
  }
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(b.weight, a.i, a.j) < std::tie(a.weight, b.i, b.j);
  });

  std::vector<std::size_t> parent(n), size(n, 1);
  std::iota(parent.begin(), parent.end(), 0);
  for (const Edge& e : edges) {
    const std::size_t a = find_root(parent, e.i);
    const std::size_t b = find_root(parent, e.j);
    if (a == b || size[a] + size[b] > cap) continue;
    const std::size_t root = std::min(a, b);
    size[root] = size[a] + size[b];
    parent[std::max(a, b)] = root;
  }
  return collect_groups(parent);
}

}  // namespace

Partition partition_participants(const agree::AgreementSystem& sys,
                                 const PartitionOptions& opts) {
  const std::size_t n = sys.size();
  AGORA_REQUIRE(n > 0, "cannot partition an empty system");
  std::size_t shards = opts.shards == 0 ? 1 : std::min(opts.shards, n);

  const std::vector<std::vector<std::size_t>> comps = agree::connected_components(sys);

  Partition part;
  part.components = comps.size();
  part.shard_of.assign(n, 0);

  if (comps.size() < shards && shards > 1 && opts.federated) {
    // Federated split: cut the components themselves, lightest edges first
    // to the boundary. Cut entitlements become border credits.
    const auto groups = agglomerate(sys, shards);
    part.shards = std::min(shards, groups.size());
    part.federated = part.shards > 1 && groups.size() > comps.size();
    pack_groups(groups, part);
    return part;
  }

  part.shards = std::min(shards, comps.size());
  pack_groups(comps, part);
  return part;
}

Partition partition_participants(const agree::AgreementSystem& sys, std::size_t shards) {
  PartitionOptions opts;
  opts.shards = shards;
  return partition_participants(sys, opts);
}

}  // namespace agora::engine
