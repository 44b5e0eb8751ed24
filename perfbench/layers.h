// The traced run: per-layer metrics for one workload.
//
// Two sources, both driven from the benchmark's own code:
//   * a probe pipeline of standalone LoadBalancer and SubOram objects holding the
//     same objects and fed the same kind of traffic, where each layer is timed
//     around its public call (PrepareBatches, ProcessBatch, TwoTierOht::Build and
//     ExtractAll on a copy of the same batch, MatchResponses), plus SealState on
//     the deployment's own partitions;
//   * the running deployment with the span tracer on, for the two steps with no
//     public entry point (the subORAM scan inside ProcessBatch, stripe
//     distribution inside RunEpoch) and for attributing RunEpoch wall time to
//     layers (Tracer::snapshot()).
// Closed-loop epochs alternate tracing off and on, which gives the tracing
// overhead; the open loop runs traced throughout.

#ifndef SNOOPY_PERFBENCH_LAYERS_H_
#define SNOOPY_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "perfbench/common.h"
#include "perfbench/traffic.h"

namespace perfbench {

Metrics RunTraced(const Workload& w, const Objects& objects, Traffic& traffic, uint64_t seed,
                  double seconds);

}  // namespace perfbench

#endif  // SNOOPY_PERFBENCH_LAYERS_H_
