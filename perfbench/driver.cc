// End-to-end benchmark of the functional Snoopy deployment: the real oblivious load
// balancers and subORAMs, real AEAD channels and the in-process Network, driven
// from one seeded process. No cost model is involved in any end-to-end figure.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics: set-up time, closed-loop throughput,
// open-loop latency, peak memory and storage overhead. --trace 1 runs the same
// deployment with the span tracer on and prints the per-layer metrics instead
// (perfbench/layers.h). Every response is checked (perfbench/oracle.h); the last
// stdout line is the result object, and any wrong or missing response makes the
// exit code non-zero.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/layers.h"
#include "perfbench/loops.h"
#include "perfbench/traffic.h"
#include "src/analysis/batch_bound.h"
#include "src/core/request.h"
#include "src/obl/hash_table.h"
#include "src/obl/kernels.h"

namespace perfbench {
namespace {

// Unmeasured closed-loop epochs before any timing (caches, pool threads, allocator).
constexpr int kWarmupEpochs = 2;
// The end-to-end run is kRounds rounds; kClosedShare of --seconds goes to the
// closed loop (at least kMinClosedEpochs epochs per round), the rest to the open
// loop.
constexpr int kRounds = 5;
constexpr double kClosedShare = 0.25;
constexpr int kMinClosedEpochs = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Peak resident set (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// The oblivious-sort strategy the subORAM's hash-table build resolves to for a
// closed-loop batch: C/L requests per load balancer, padded to f(C/L, S).
std::string OhtSortStrategy(const Workload& w) {
  const uint64_t batch = snoopy::BatchSize(w.closed_batch / kLoadBalancers, kSubOrams);
  const snoopy::OhtParams p = snoopy::ChooseOhtParams(batch, snoopy::kDefaultLambda);
  snoopy::SortBinSpec spec;
  spec.bin_offset = snoopy::kRequestOhtSchema.bin_offset;
  spec.num_bins = p.bins1;
  spec.bins_simulatable = true;
  spec.lambda = snoopy::kDefaultLambda;
  snoopy::BucketSortParams params;
  const snoopy::SortStrategy s = snoopy::ResolveSortStrategy(
      DeploymentConfig(w).sort_strategy, batch + p.bins1 * p.z1,
      snoopy::RequestBatch::kHeaderBytes + kValueSize, &spec, &params);
  return std::string(snoopy::SortStrategyName(s)) + "@" + std::to_string(batch);
}

void PrintStamp(const Workload& w, const Args& args) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", \"kernel_backend\": \"%s\", "
      "\"oht_sort_strategy\": \"%s\", \"epoch_threads\": %d, \"objects\": %llu, "
      "\"closed_batch\": %llu, \"open_rate\": %g, \"zipf_theta\": %g, \"clients\": %u, "
      "\"striping_replicas\": %u, \"xor_parity\": %s, \"value_size\": %zu, "
      "\"load_balancers\": %u, \"suborams\": %u, \"write_fraction\": %g}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, CpuModel().c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, snoopy::KernelBackendName(snoopy::ActiveKernelBackend()),
      OhtSortStrategy(w).c_str(), kEpochThreads,
      static_cast<unsigned long long>(w.objects),
      static_cast<unsigned long long>(w.closed_batch), w.open_rate, w.zipf_theta,
      w.clients, w.striping.replicas, w.striping.xor_parity ? "true" : "false",
      kValueSize, kLoadBalancers, kSubOrams, kWriteFraction);
}

// (store records + sealed snapshots + host stripes) / (N x value_size).
double StoredBytesPerUserByte(snoopy::Snoopy& s, const Workload& w) {
  double bytes = 0;
  for (uint32_t so = 0; so < kSubOrams; ++so) {
    bytes += static_cast<double>(s.suboram(so).num_objects() * (8 + kValueSize));
    bytes += static_cast<double>(s.suboram_snapshot(so).size());
    for (uint32_t peer = 0; peer < kSubOrams; ++peer) {
      if (const auto* stripe = s.host_stripe(peer, so)) {
        bytes += static_cast<double>(stripe->payload.size());
      }
    }
  }
  return bytes / (static_cast<double>(w.objects) * kValueSize);
}

void PrintResult(const Traffic& traffic, const Metrics& metrics) {
  const Oracle& o = traffic.oracle();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted()),
              static_cast<unsigned long long>(o.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  Workload w;
  if (!LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintStamp(w, args);
  std::fflush(stdout);
  const Objects objects = MakeObjects(w.objects);

  // Set-up: construction through Initialize plus client attestation/registration.
  // The deployment set up here serves the whole run and is the first setup_s sample.
  std::vector<double> setup_s;
  Deployment deployment;
  double t0 = Now();
  deployment = Deploy(w, objects, args.seed);
  setup_s.push_back(Now() - t0);
  Traffic traffic(w, deployment, args.seed);
  for (int i = 0; i < kWarmupEpochs; ++i) {
    ClosedEpoch(traffic, w.closed_batch);
  }

  Metrics metrics;
  if (args.trace == 1) {
    metrics = RunTraced(w, objects, traffic, args.seed, args.seconds);
  } else {
    // kRounds rounds of: throwaway set-ups, a closed-loop chunk, an open-loop
    // window. Spreading each metric's samples over the whole run keeps a burst of
    // host noise from landing on one metric; each figure is a median over samples
    // from every round.
    std::vector<double> epoch_s, p50_s, p90_s, backlog_mid, backlog_end;
    uint64_t open_requests = 0;
    size_t open_epochs = 0;
    uint64_t min_epochs_beyond_p90 = ~uint64_t{0};
    uint64_t epochs_beyond_p90 = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < w.setups_per_round; ++i) {
        t0 = Now();
        const Deployment spare = Deploy(w, objects, args.seed + setup_s.size());
        setup_s.push_back(Now() - t0);
      }
      // Closed loop: throughput is C over the median epoch wall. The first epoch
      // after the set-ups is not timed: it pays for the spare deployment's freed
      // memory being faulted back in.
      ClosedEpoch(traffic, w.closed_batch);
      const double closed_end = Now() + kClosedShare * args.seconds / kRounds;
      for (int i = 0; Now() < closed_end || i < kMinClosedEpochs; ++i) {
        epoch_s.push_back(ClosedEpoch(traffic, w.closed_batch).wall_s);
      }
      // Open loop: each latency percentile is the median over the rounds' windows.
      const OpenLoopResult open =
          OpenLoop(traffic, w.open_rate, (1 - kClosedShare) * args.seconds / kRounds,
                   args.seed * kRounds + static_cast<uint64_t>(round));
      p50_s.push_back(open.p50_s);
      p90_s.push_back(open.p90_s);
      backlog_mid.push_back(open.backlog_mid);
      backlog_end.push_back(open.backlog_end);
      open_requests += open.requests;
      open_epochs += open.epoch_wall_s.size();
      min_epochs_beyond_p90 = std::min(min_epochs_beyond_p90, open.epochs_beyond_p90);
      epochs_beyond_p90 += open.epochs_beyond_p90;
    }
    std::printf(
        "{\"info\": {\"closed_epochs\": %zu, \"open_requests\": %llu, \"open_epochs\": %zu, "
        "\"open_windows\": %d, \"epochs_beyond_p90\": %llu, \"epochs_beyond_p90_min\": %llu, "
        "\"backlog_mid_max\": %.0f, \"backlog_end_max\": %.0f, \"failed_frac\": %.6g, "
        "\"setups\": %zu}}\n",
        epoch_s.size(), static_cast<unsigned long long>(open_requests), open_epochs,
        kRounds, static_cast<unsigned long long>(epochs_beyond_p90),
        static_cast<unsigned long long>(min_epochs_beyond_p90),
        Quantile(backlog_mid, 1), Quantile(backlog_end, 1),
        static_cast<double>(traffic.oracle().failed()) /
            static_cast<double>(traffic.oracle().attempted()),
        setup_s.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_rps", static_cast<double>(w.closed_batch) / Median(epoch_s), "1/s"},
        {"latency_p50_ms", Median(p50_s) * 1e3, "ms"},
        {"latency_p90_ms", Median(p90_s) * 1e3, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"stored_bytes_per_user_byte", StoredBytesPerUserByte(traffic.snoopy(), w),
         "B/B"},
    };
  }
  if (!traffic.oracle().first_error().empty()) {
    std::fprintf(stderr, "wrong or missing responses: %llu; first: %s\n",
                 static_cast<unsigned long long>(traffic.oracle().failed()),
                 traffic.oracle().first_error().c_str());
  }
  PrintResult(traffic, metrics);
  return traffic.oracle().failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <sort_bound|scan_bound|durable_clients> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
