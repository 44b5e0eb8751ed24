#include "perfbench/loops.h"

#include <algorithm>
#include <random>
#include <set>
#include <thread>

namespace perfbench {

ClosedEpochSample ClosedEpoch(Traffic& traffic, uint64_t batch) {
  const std::vector<Request> requests = traffic.Generate(batch);
  ClosedEpochSample s;
  const double t0 = Now();
  for (const Request& r : requests) {
    traffic.Submit(r);
  }
  s.submit_s = Now() - t0;
  s.result = traffic.RunEpoch();
  s.wall_s = s.submit_s + s.result.run_s + s.result.fetch_s;
  return s;
}

OpenLoopResult OpenLoop(Traffic& traffic, double rate, double window_s, uint64_t seed,
                        const std::function<void(const Traffic::EpochResult&)>& after_epoch) {
  std::mt19937_64 arrivals(seed * 0xd1342543de82ef95ULL + 3);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(arrivals); t < window_s; t += gap(arrivals)) {
    due.push_back(t);
  }
  const size_t n = due.size();
  const std::vector<Request> requests = traffic.Generate(n);

  OpenLoopResult out;
  out.requests = n;
  std::vector<double> delivered(n, -1);  // delivery time, -1 = never answered
  std::vector<uint64_t> epoch_of(n, 0);
  std::vector<double> waits;
  waits.reserve(n);
  const uint64_t first_id = traffic.submitted();
  size_t next = 0;       // next arrival to submit
  size_t in_epochs = 0;  // arrivals handed to an epoch so far
  uint64_t epoch = 0;
  const double start = Now();
  while (in_epochs < n) {
    const double now = Now() - start;
    while (next < n && due[next] <= now) {
      traffic.Submit(requests[next]);
      waits.push_back(now - due[next]);
      ++next;
    }
    if (next == in_epochs) {
      // Idle: nothing has come due yet.
      std::this_thread::sleep_until(
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(due[next] - (Now() - start)));
      continue;
    }
    const Traffic::EpochResult result = traffic.RunEpoch();
    const double at = Now() - start;
    out.epoch_wall_s.push_back(result.run_s);
    out.epoch_requests.push_back(static_cast<double>(next - in_epochs));
    for (const uint64_t id : result.ok) {
      const uint64_t k = id - first_id;
      delivered[k] = at;
      epoch_of[k] = epoch;
    }
    in_epochs = next;
    ++epoch;
    if (after_epoch) {
      after_epoch(result);
    }
  }

  for (size_t k = 0; k < n; ++k) {
    if (delivered[k] >= 0) {
      out.latency_s.push_back(delivered[k] - due[k]);
    }
  }
  out.p50_s = Quantile(out.latency_s, 0.5);
  out.p90_s = Quantile(out.latency_s, 0.9);
  std::set<uint64_t> slow_epochs;
  for (size_t k = 0; k < n; ++k) {
    if (delivered[k] >= 0 && delivered[k] - due[k] > out.p90_s) {
      slow_epochs.insert(epoch_of[k]);
    }
  }
  out.epochs_beyond_p90 = slow_epochs.size();
  out.wait_p50_s = Median(waits);
  const auto backlog_at = [&](double t) {
    double count = 0;
    for (size_t k = 0; k < n && due[k] <= t; ++k) {
      if (delivered[k] < 0 || delivered[k] > t) {
        ++count;
      }
    }
    return count;
  };
  out.backlog_mid = backlog_at(window_s / 2);
  out.backlog_end = backlog_at(window_s);
  return out;
}

}  // namespace perfbench
