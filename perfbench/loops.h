// The two load shapes every workload runs: a closed loop (a fixed batch of C
// requests per epoch, the next batch only after the previous one is answered) and an
// open loop (Poisson arrivals on a fixed schedule, whatever the system does).

#ifndef SNOOPY_PERFBENCH_LOOPS_H_
#define SNOOPY_PERFBENCH_LOOPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/traffic.h"

namespace perfbench {

struct ClosedEpochSample {
  double wall_s = 0;    // submit + RunEpoch + fetch: what one client batch waits
  double submit_s = 0;  // submitting the C requests
  Traffic::EpochResult result;
};

// Submits `batch` fresh requests, runs one epoch and checks the responses.
ClosedEpochSample ClosedEpoch(Traffic& traffic, uint64_t batch);

struct OpenLoopResult {
  uint64_t requests = 0;               // arrivals scheduled in the window
  std::vector<double> latency_s;       // due -> delivered, one per correct response
  std::vector<double> epoch_wall_s;    // RunEpoch wall, per epoch
  std::vector<double> epoch_requests;  // requests executed, per epoch
  double p50_s = 0;
  double p90_s = 0;
  uint64_t epochs_beyond_p90 = 0;  // distinct epochs holding a request slower than p90
  double wait_p50_s = 0;           // due -> submitted at the next epoch boundary
  double backlog_mid = 0;          // requests due but undelivered at window / 2
  double backlog_end = 0;          // ... and at the end of the window
};

// Poisson arrivals at `rate` per second for `window_s` seconds, drawn from `seed`.
// A request that comes due while an epoch runs joins the next epoch; its latency
// runs from its due time to the delivery of its response, so a slow epoch is
// charged to every request queued behind it. The loop drains before returning.
// `after_epoch`, if set, runs after every epoch (outside the timed path).
OpenLoopResult OpenLoop(Traffic& traffic, double rate, double window_s, uint64_t seed,
                        const std::function<void(const Traffic::EpochResult&)>& after_epoch = {});

}  // namespace perfbench

#endif  // SNOOPY_PERFBENCH_LOOPS_H_
