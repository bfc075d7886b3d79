// grid_scheduler -- the GRM/LRM resource management system the paper
// describes building (Section 3.2, last paragraph): three sites with CPU
// and disk, LRMs reporting availability over a latency-ful message bus,
// and a centralized GRM enforcing sharing agreements for multi-resource
// job requests.
//
// Build & run:  ./build/examples/grid_scheduler
#include <algorithm>
#include <cstdio>
#include <iterator>

#include "agree/matrices.h"
#include "rms/bus.h"
#include "rms/grm.h"
#include "rms/lrm.h"

using namespace agora;
using namespace agora::rms;

namespace {

const char* kSites[] = {"nyu.cs", "lab.alpha", "lab.beta"};

void print_reply(const AllocationReply& r) {
  if (!r.granted) {
    std::printf("  request %llu DENIED: %s\n", static_cast<unsigned long long>(r.request_id),
                r.reason.c_str());
    return;
  }
  std::printf("  request %llu granted:\n", static_cast<unsigned long long>(r.request_id));
  const char* res[] = {"cpu", "disk"};
  for (std::size_t rr = 0; rr < std::min(r.draws.size(), std::size(res)); ++rr)
    for (std::size_t s = 0; s < std::min(r.draws[rr].size(), std::size(kSites)); ++s)
      if (r.draws[rr][s] > 1e-9)
        std::printf("    %5.1f %s from %s\n", r.draws[rr][s], res[rr], kSites[s]);
}

}  // namespace

int main() {
  MessageBus bus;

  // Agreements: lab.alpha shares 40% of CPU with nyu.cs; lab.beta shares
  // 25% of its disk with nyu.cs and 50% of CPU with lab.alpha (so nyu.cs
  // reaches beta's CPU only transitively).
  agree::AgreementSystem cpu(3), disk(3);
  cpu.capacity = {8.0, 32.0, 64.0};
  cpu.relative(1, 0) = 0.40;
  cpu.relative(2, 1) = 0.50;
  disk.capacity = {100.0, 500.0, 1000.0};
  disk.relative(2, 0) = 0.25;

  Grm grm(bus, {cpu, disk}, {}, /*decision_latency=*/0.01);
  Lrm nyu(bus, {8.0, 100.0}, /*report_latency=*/0.02);
  Lrm alpha(bus, {32.0, 500.0}, 0.02);
  Lrm beta(bus, {64.0, 1000.0}, 0.02);
  grm.register_lrm(0, nyu.endpoint());
  grm.register_lrm(1, alpha.endpoint());
  grm.register_lrm(2, beta.endpoint());
  nyu.attach(grm.endpoint(), 0);
  alpha.attach(grm.endpoint(), 1);
  beta.attach(grm.endpoint(), 2);

  std::vector<AllocationReply> replies;
  const EndpointId client = bus.add_endpoint([&](const Envelope& env) {
    if (const auto* r = std::get_if<AllocationReply>(&env.payload)) replies.push_back(*r);
  });
  bus.run_until_idle();

  const auto submit = [&](std::uint64_t id, std::size_t principal, double cpus, double disks,
                          double duration) {
    AllocationRequest req;
    req.request_id = id;
    req.principal = principal;
    req.amounts = {cpus, disks};
    req.duration = duration;
    bus.post(client, grm.endpoint(), req);
    bus.run_until(bus.now() + 1.0);  // let the decision settle, not releases
    print_reply(replies.back());
  };

  std::printf("job 1: nyu.cs wants 20 cpus + 150 disk (needs borrowed capacity):\n");
  submit(1, 0, 20.0, 150.0, /*duration=*/3600.0);

  std::printf("\njob 2: nyu.cs wants another 20 cpus (transitive reach is now thinner):\n");
  submit(2, 0, 20.0, 0.0, 3600.0);

  std::printf("\nraising alpha->nyu CPU share from 40%% to 80%% at runtime...\n");
  AgreementUpdate upd;
  upd.resource = 0;
  upd.from = 1;
  upd.to = 0;
  upd.share = 0.80;
  bus.post(client, grm.endpoint(), upd);
  bus.run_until(bus.now() + 1.0);

  std::printf("job 3: the same 20-cpu request after the agreement change:\n");
  submit(3, 0, 20.0, 0.0, 3600.0);

  std::printf("\nletting jobs finish (releases flow back)...\n");
  bus.run_until_idle();
  std::printf("final availability: %s cpu %.1f, %s cpu %.1f, %s cpu %.1f\n", kSites[0],
              nyu.available()[0], kSites[1], alpha.available()[0], kSites[2],
              beta.available()[0]);
  std::printf("GRM statistics: %llu decisions, %llu grants\n",
              static_cast<unsigned long long>(grm.decisions()),
              static_cast<unsigned long long>(grm.grants()));
  return 0;
}
