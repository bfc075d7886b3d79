#include "rms/replica/group.h"

namespace agora::rms::replica {

ReplicatedGrm::ReplicatedGrm(MessageBus& bus, std::vector<agree::AgreementSystem> systems,
                             alloc::AllocatorOptions opts, double decision_latency,
                             GrmOptions grm_opts) {
  const std::size_t replicas = grm_opts.replication.replicas;
  AGORA_REQUIRE(replicas >= 1, "need at least one GRM replica");
  nodes_.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i)
    nodes_.push_back(
        std::make_unique<RaftNode>(bus, i, systems, opts, decision_latency, grm_opts));
  std::vector<EndpointId> group = endpoints();
  for (auto& n : nodes_) n->connect(group);
}

std::vector<EndpointId> ReplicatedGrm::endpoints() const {
  std::vector<EndpointId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->endpoint());
  return out;
}

EndpointId ReplicatedGrm::ingress(std::size_t site) const {
  return nodes_[site % nodes_.size()]->endpoint();
}

void ReplicatedGrm::register_lrm(std::size_t site, EndpointId lrm) {
  for (auto& n : nodes_) n->register_lrm(site, lrm);
}

void ReplicatedGrm::start() {
  for (auto& n : nodes_) n->start();
}

void ReplicatedGrm::stop() {
  for (auto& n : nodes_) n->stop();
}

std::optional<std::size_t> ReplicatedGrm::leader() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->role() != RaftNode::Role::Leader) continue;
    if (!best || nodes_[i]->term() > nodes_[*best]->term()) best = i;
  }
  return best;
}

std::vector<std::uint64_t> ReplicatedGrm::digests() const {
  std::vector<std::uint64_t> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->digest());
  return out;
}

bool ReplicatedGrm::converged() const {
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i]->digest() != nodes_[0]->digest()) return false;
  return true;
}

RaftStats ReplicatedGrm::stats() const {
  RaftStats sum;
  for (const auto& n : nodes_) {
    const RaftStats s = n->stats();
    sum.elections_started += s.elections_started;
    sum.elections_won += s.elections_won;
    sum.votes_granted += s.votes_granted;
    sum.appends_sent += s.appends_sent;
    sum.entries_appended += s.entries_appended;
    sum.suffix_truncations += s.suffix_truncations;
    sum.compactions += s.compactions;
    sum.snapshots_installed += s.snapshots_installed;
    sum.redirects += s.redirects;
    sum.forwarded_ingress += s.forwarded_ingress;
    sum.dropped_ingress += s.dropped_ingress;
    sum.restarts += s.restarts;
  }
  return sum;
}

}  // namespace agora::rms::replica
