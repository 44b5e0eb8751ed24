// Shared definitions for the end-to-end benchmark driver: workload shapes, the
// self-checking value encoding, and small timing/statistics helpers.

#ifndef SNOOPY_PERFBENCH_COMMON_H_
#define SNOOPY_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/snoopy.h"

namespace perfbench {

// Every workload: 160-byte values, L = 2 load balancers, S = 4 subORAMs, 50% writes,
// and a two-thread epoch pool whose caller thread is the driver thread itself.
inline constexpr size_t kValueSize = 160;
inline constexpr uint32_t kLoadBalancers = 2;
inline constexpr uint32_t kSubOrams = 4;
inline constexpr double kWriteFraction = 0.5;
inline constexpr int kEpochThreads = 2;

struct Workload {
  std::string name;
  uint64_t objects = 0;        // N
  size_t setups_per_round = 2;  // extra set-ups timed per round (perfbench/driver.cc)
  uint64_t closed_batch = 0;   // C: requests per closed-loop epoch
  double open_rate = 0;        // Poisson arrivals per second in the open loop
  double zipf_theta = 0;       // 0 = uniform keys
  uint32_t clients = 0;        // 0 = Submit*WithLb traffic; else attested SnoopyClients
  snoopy::StripingConfig striping;
};

// Returns false when `name` is not a known workload.
bool LookupWorkload(const std::string& name, Workload* out);

snoopy::SnoopyConfig DeploymentConfig(const Workload& w);

// Values are self-describing so a response can be checked without storing payloads:
// bytes [0, 8) hold the write tag (0 = the object's initial value), [8, 16) the key,
// and the rest a pseudorandom fill derived from both.
void FillValue(uint64_t key, uint64_t tag, uint8_t* out);
std::vector<uint8_t> MakeValue(uint64_t key, uint64_t tag);
inline uint64_t TagOf(const uint8_t* value) {
  uint64_t tag = 0;
  std::memcpy(&tag, value, 8);
  return tag;
}

// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace perfbench

#endif  // SNOOPY_PERFBENCH_COMMON_H_
