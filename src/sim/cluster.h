// Epoch-pipeline cluster simulator.
//
// Simulates a Snoopy deployment (L load balancers, S subORAMs) serving a Poisson
// request stream, using the calibrated cost model for per-stage service times and the
// real batch-size mathematics for batch shapes. The pipeline follows the paper's
// section 6 structure: requests wait for the next epoch boundary, the load balancer
// prepares batches, every subORAM executes one batch per load balancer, and responses
// are matched and returned. Stages are pipelined: a load balancer may prepare epoch
// k+1 while the subORAMs execute epoch k.
//
// MaxThroughput inverts the simulation: the largest offered load whose simulated mean
// latency stays within a bound -- this is what Figures 9a/9b/10 plot against machine
// count.

#ifndef SNOOPY_SRC_SIM_CLUSTER_H_
#define SNOOPY_SRC_SIM_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/telemetry/metrics.h"

namespace snoopy {

// Epoch-boundary elastic reshard event: from `at_s` on, the deployment runs
// `suborams` partitions. Applied at the first epoch boundary past `at_s` with no
// partition under repair (the functional deployment's precondition); the migration
// stalls the whole pipeline for the modeled gather + oblivious-redistribute time.
struct ReshardEvent {
  double at_s = 0;
  uint32_t suborams = 0;
};

// Piecewise-constant load multiplier from `start_s` on (diurnal profiles).
struct LoadPhase {
  double start_s = 0;
  double multiplier = 1.0;
};

struct ClusterConfig {
  uint32_t load_balancers = 1;
  uint32_t suborams = 1;
  uint64_t num_objects = 0;
  double epoch_seconds = 0.1;
  // Requests per client-visible operation (key transparency issues log2(n)+1 ORAM
  // accesses per lookup, paper section 8.2).
  double accesses_per_op = 1.0;
  // Machine failure process (0 disables, the default). Each machine fails with
  // exponential inter-failure times (mean = MTTF) and is unavailable for an
  // exponential repair time (mean = MTTR): a crashed load balancer is rebuilt
  // statelessly, a crashed subORAM restores its sealed snapshot (sections 4.3 and 9),
  // and during repair its stage of the pipeline stalls. Failure randomness comes from
  // a separate stream, so zero-rate runs are bit-identical to pre-failure-model runs.
  double lb_mttf_s = 0;
  double lb_mttr_s = 0;
  double suboram_mttf_s = 0;
  double suboram_mttr_s = 0;
  // Permanent machine loss + striped repair (DESIGN.md, "Failure model").
  // SubORAMs are permanently lost with exponential inter-loss times (mean = MTPL,
  // 0 disables). A lost partition serves nothing for `repair_epochs` epochs -- the
  // public, load-independent repair schedule -- while its 1/S share of each epoch's
  // requests is deferred to the completion epoch; surviving peers pay a fixed
  // per-epoch repair-traffic cost for streaming stripe slices.
  double suboram_mtpl_s = 0;
  uint32_t repair_epochs = 4;
  // Elastic reshard events, ascending by at_s. Empty = fixed-width deployment.
  std::vector<ReshardEvent> reshard_schedule;
  // Diurnal load multipliers, ascending by start_s. Empty = constant offered load.
  std::vector<LoadPhase> load_profile;
  // Collect the per-request latency distribution (histogram-backed percentiles in
  // ClusterMetrics). Costs O(histogram buckets) per (epoch, load balancer) -- the
  // per-epoch work stays O(L + S) -- but can be switched off for overhead studies.
  bool latency_histogram = true;
};

struct ClusterMetrics {
  double offered_load = 0;       // operations per second offered
  double completed_ops = 0;      // operations answered within the simulated window
  double throughput = 0;         // completed / duration
  double mean_latency_s = 0;
  double max_latency_s = 0;
  // Histogram-backed percentiles (0 when config.latency_histogram is off or no
  // request completed). Arrivals are uniform within an epoch given their count, so
  // each (epoch, lb) cohort contributes a uniform latency mass -- exact under the
  // model, not a sampling approximation.
  double latency_p50_s = 0;
  double latency_p90_s = 0;
  double latency_p99_s = 0;
  Histogram latency_histogram;  // full distribution, mergeable across runs
  double mean_batch_size = 0;    // per-subORAM batch size f(R, S) averaged over epochs
  bool saturated = false;        // backlog kept growing: offered load is unsustainable
  uint64_t failures = 0;         // machine failures, transient + permanent
  double downtime_s = 0;         // summed per-machine repair time
  uint64_t transient_failures = 0;  // crash/recover failures (MTTR restores the machine)
  uint64_t permanent_losses = 0;    // losses only the striped-repair protocol restores
  uint64_t repairs_completed = 0;   // repairs that finished within the window
  uint64_t reshards = 0;            // elastic reshard events applied
  uint64_t degraded_epochs = 0;     // epochs with >= 1 partition under repair
  double deferred_ops = 0;          // request mass deferred past its arrival epoch
};

class ClusterSimulator {
 public:
  ClusterSimulator(const ClusterConfig& config, const CostModel& model)
      : config_(config), model_(model) {}

  // Simulates `duration` seconds of Poisson arrivals at `ops_per_second`.
  ClusterMetrics Run(double ops_per_second, double duration, uint64_t seed) const;

  // Largest sustainable throughput with mean latency <= latency_bound, searching over
  // epoch lengths up to 2/5 * latency_bound (paper Equation 2).
  static ClusterMetrics MaxThroughput(uint32_t load_balancers, uint32_t suborams,
                                      uint64_t num_objects, double latency_bound,
                                      const CostModel& model, double accesses_per_op = 1.0);

  // Best machine split for a total machine budget (what Figure 9a's boxed points
  // encode: sometimes the next machine is a load balancer, sometimes a subORAM).
  struct SplitResult {
    uint32_t load_balancers = 0;
    uint32_t suborams = 0;
    ClusterMetrics metrics;
  };
  static SplitResult BestSplit(uint32_t total_machines, uint64_t num_objects,
                               double latency_bound, const CostModel& model,
                               double accesses_per_op = 1.0);

 private:
  ClusterConfig config_;
  CostModel model_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_SIM_CLUSTER_H_
