// simulator.h -- discrete-event simulation of cooperating ISP web proxies
// (Section 4, Figure 4).
//
// Each proxy serves its front-end FIFO queue one request at a time; a
// request of response length x needs min(c, a + b*x) unit-power service
// seconds, divided by the proxy's power. When the queued demand at a proxy
// exceeds the configured threshold, the global scheduler is consulted: it
// receives every proxy's spare capacity over a short planning window and
// (under the LP scheme) solves the Section-3 allocation problem to decide
// which proxies absorb the overflow; queued requests are then redirected,
// each paying the configured redirection overhead. Waiting time is measured
// from arrival to start of service and attributed to the request's original
// arrival slot, matching the paper's per-10-minute-slot averages.
#pragma once

#include <vector>

#include "proxysim/config.h"
#include "proxysim/metrics.h"
#include "trace/request.h"

namespace agora::proxysim {

class Simulator {
 public:
  explicit Simulator(SimConfig cfg);

  /// Run to completion over the given per-proxy request streams (one vector
  /// of arrival-sorted requests per proxy, every arrival finite and
  /// non-negative). The simulation drains all queues past the horizon so
  /// every request is served exactly once.
  SimMetrics run(const std::vector<std::vector<trace::TraceRequest>>& traces);

 private:
  SimConfig cfg_;
};

}  // namespace agora::proxysim
