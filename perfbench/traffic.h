// The driver's view of one running deployment: seeded request generation,
// submission through the workload's entry point (pinned-LB calls or attested client
// sessions), epoch execution, and response checking through the oracle.

#ifndef SNOOPY_PERFBENCH_TRAFFIC_H_
#define SNOOPY_PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/oracle.h"
#include "src/core/client.h"
#include "src/core/snoopy.h"
#include "src/sim/workload.h"

namespace perfbench {

using Objects = std::vector<std::pair<uint64_t, std::vector<uint8_t>>>;

// Keys 0..n-1, each holding its tag-0 initial value.
Objects MakeObjects(uint64_t n);

struct Deployment {
  std::unique_ptr<snoopy::Snoopy> snoopy;
  std::vector<std::unique_ptr<snoopy::SnoopyClient>> clients;
};

// Constructs and loads the deployment, then attests and registers the workload's
// client sessions: everything `setup_s` times.
Deployment Deploy(const Workload& w, const Objects& objects, uint64_t seed);

struct Request {
  uint64_t key = 0;
  bool is_write = false;
  uint32_t lb = 0;      // pinned-LB traffic
  uint32_t client = 0;  // client-session traffic
};

class Traffic {
 public:
  Traffic(const Workload& w, Deployment& deployment, uint64_t seed);

  // The next `n` requests of the seeded stream.
  std::vector<Request> Generate(size_t n);

  // Submits one request into the current epoch; returns its id (dense from 0).
  uint64_t Submit(const Request& r);

  struct EpochResult {
    std::vector<uint64_t> ok;  // ids answered correctly
    size_t responses = 0;      // responses delivered, correct or not
    double run_s = 0;          // Snoopy::RunEpoch wall
    double fetch_s = 0;        // SnoopyClient::FetchResponses wall, all sessions
  };
  // Runs one epoch over everything submitted since the last call, collects the
  // responses and checks them. A throwing epoch fails all of its requests.
  EpochResult RunEpoch();

  uint64_t submitted() const { return next_id_; }
  const Oracle& oracle() const { return oracle_; }
  snoopy::Snoopy& snoopy() { return *deployment_.snoopy; }

 private:
  Workload w_;
  Deployment& deployment_;
  snoopy::WorkloadGenerator keys_;
  std::mt19937_64 pick_;
  Oracle oracle_;
  uint64_t next_id_ = 0;
  std::vector<std::vector<uint64_t>> session_ids_;  // [client][client_seq] -> id
  std::vector<uint8_t> value_;
};

}  // namespace perfbench

#endif  // SNOOPY_PERFBENCH_TRAFFIC_H_
