// Determinism of the parallel epoch executor (SnoopyConfig::epoch_threads).
//
// The epoch pipeline may fan phase 1 (batch preparation) out per load balancer,
// phase 2 per subORAM (each applying its batches in load-balancer order, which
// preserves the Appendix C linearization), and phase 3 per load balancer. The
// contract, pinned here, is that the thread count is *invisible* in every output the
// adversary or a client can see: identical client responses, byte-identical merged
// enclave traces (per-thread buffers merged in public-id order), and -- under chaos
// -- exactly the same fault decisions, so the fired-decision reconciliation from the
// telemetry tests keeps holding at any epoch_threads setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/snoopy.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/net/fault.h"
#include "src/net/network.h"

namespace snoopy {
namespace {

constexpr size_t kValueSize = 32;
constexpr uint64_t kObjects = 96;

std::vector<uint8_t> Val(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

FaultProfile ChaosProfile() {
  FaultProfile chaos;
  chaos.drop = 0.08;
  chaos.duplicate = 0.08;
  chaos.corrupt = 0.05;
  chaos.crash_before_reply = 0.03;
  chaos.delay = 0.05;
  chaos.delay_s = 0.01;
  chaos.crash_at_epoch_start = 0.05;
  return chaos;
}

struct RunResult {
  std::map<uint64_t, ClientResponse> responses;  // by client_seq, all epochs
  std::vector<TraceEvent> trace;                 // all epochs, concatenated
  Network::Stats stats;                          // aggregate counters (no per-pair)
  uint64_t dedup_hits = 0;
  std::vector<FaultInjector::FiredDecision> fired;
};

// Runs the same seeded multi-epoch read/write workload (several epochs, requests
// pinned round-robin to load balancers) at the given thread count and returns
// everything observable. The workload, topology, and chaos seed are fixed; only
// epoch_threads varies across calls.
RunResult RunWorkload(int epoch_threads, uint64_t seed, bool with_chaos,
                      int epochs = 5) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = 2;
  cfg.num_suborams = 4;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = epoch_threads;

  FaultInjector injector(seed * 3 + 1);
  injector.set_default_profile(ChaosProfile());

  auto store = std::make_unique<Snoopy>(cfg, seed);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kObjects; ++k) {
    objects.emplace_back(k, Val(k));
  }
  store->Initialize(objects);
  MetricsRegistry registry;
  store->set_metrics_registry(&registry);
  if (with_chaos) {
    store->set_fault_injector(&injector);
  }

  RunResult result;
  Rng rng(seed * 77 + 5);
  uint64_t seq = 1;
  {
    TraceScope scope;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const size_t n = 8 + rng.Uniform(16);
      for (size_t i = 0; i < n; ++i) {
        const auto lb = static_cast<uint32_t>(i % cfg.num_load_balancers);
        const uint64_t key = rng.Uniform(kObjects);
        if (rng.Uniform(2) == 0) {
          store->SubmitWriteWithLb(lb, lb, seq, key,
                                   Val(key, static_cast<uint8_t>(epoch + 1)));
        } else {
          store->SubmitReadWithLb(lb, lb, seq, key);
        }
        ++seq;
      }
      for (ClientResponse& resp : store->RunEpoch()) {
        result.responses[resp.client_seq] = std::move(resp);
      }
    }
    result.trace = scope.Events();
  }
  result.stats = store->network().stats();
  result.dedup_hits = registry.GetCounter("snoopy_dedup_hits_total").value();
  result.fired = injector.fired_log();
  return result;
}

void ExpectSameResponses(const RunResult& base, const RunResult& run, int threads) {
  ASSERT_EQ(base.responses.size(), run.responses.size()) << "threads=" << threads;
  for (const auto& [s, want] : base.responses) {
    ASSERT_EQ(run.responses.count(s), 1u) << "threads=" << threads << " seq=" << s;
    const ClientResponse& got = run.responses.at(s);
    EXPECT_EQ(got.client_id, want.client_id) << "threads=" << threads << " seq=" << s;
    EXPECT_EQ(got.key, want.key) << "threads=" << threads << " seq=" << s;
    EXPECT_EQ(got.op, want.op) << "threads=" << threads << " seq=" << s;
    ASSERT_EQ(got.value, want.value) << "threads=" << threads << " seq=" << s;
  }
}

TEST(EpochParallel, CleanRunsAreThreadCountInvariant) {
  const RunResult base = RunWorkload(/*epoch_threads=*/1, /*seed=*/21, false);
  ASSERT_FALSE(base.responses.empty());
  for (const int threads : {2, 4, 8}) {
    const RunResult run = RunWorkload(threads, /*seed=*/21, false);
    ExpectSameResponses(base, run, threads);
    // Byte-for-byte, and non-vacuously: two empty traces would prove nothing.
    EXPECT_TRUE(NonVacuousTraceEq(base.trace, run.trace))
        << "threads=" << threads << ": merged parallel trace diverged from the "
        << "sequential trace (" << base.trace.size() << " vs " << run.trace.size()
        << " events)";
  }
}

TEST(EpochParallel, ChaosRunsAreThreadCountInvariant) {
  // Fault decisions come from per-target streams, so which faults fire must not
  // depend on worker interleaving -- same responses, same merged trace (including the
  // retransmission message pattern), same aggregate accounting.
  const RunResult base = RunWorkload(/*epoch_threads=*/1, /*seed=*/31, true);
  ASSERT_GT(base.stats.faults_injected, 0u) << "chaos did not bite";
  ASSERT_GT(base.stats.retries, 0u);
  for (const int threads : {4}) {
    const RunResult run = RunWorkload(threads, /*seed=*/31, true);
    ExpectSameResponses(base, run, threads);
    EXPECT_TRUE(NonVacuousTraceEq(base.trace, run.trace)) << "threads=" << threads;
    EXPECT_EQ(run.stats.messages, base.stats.messages);
    EXPECT_EQ(run.stats.bytes_sent, base.stats.bytes_sent);
    EXPECT_EQ(run.stats.retries, base.stats.retries);
    EXPECT_EQ(run.stats.timeouts, base.stats.timeouts);
    EXPECT_EQ(run.stats.faults_injected, base.stats.faults_injected);
    EXPECT_EQ(run.stats.recoveries, base.stats.recoveries);
    EXPECT_EQ(run.dedup_hits, base.dedup_hits);
    // The *per-target* fired subsequences are deterministic (entries from different
    // targets may interleave differently under scheduling).
    std::map<std::string, std::vector<FaultAction>> by_target[2];
    for (const FaultInjector::FiredDecision& d : base.fired) {
      by_target[0][d.target].push_back(d.action);
    }
    for (const FaultInjector::FiredDecision& d : run.fired) {
      by_target[1][d.target].push_back(d.action);
    }
    EXPECT_EQ(by_target[0], by_target[1]) << "threads=" << threads;
  }
}

TEST(EpochParallel, ChaosReconciliationHoldsUnderParallelism) {
  // The exact counter reconciliation from the telemetry suite (each fired decision
  // accounts for a fixed number of retries/timeouts/recoveries/dedup hits), re-run
  // with the parallel executor. Any double counting or lost update under concurrency
  // breaks an equality.
  const RunResult run = RunWorkload(/*epoch_threads=*/4, /*seed=*/45, true, /*epochs=*/8);
  uint64_t drops = 0, dups = 0, corrupt_req = 0, corrupt_rep = 0, crashes = 0,
           delays = 0, epoch_crashes = 0;
  for (const FaultInjector::FiredDecision& d : run.fired) {
    if (d.epoch_crash) {
      ++epoch_crashes;
      continue;
    }
    switch (d.action) {
      case FaultAction::kDrop: ++drops; break;
      case FaultAction::kDuplicate: ++dups; break;
      case FaultAction::kCorruptRequest: ++corrupt_req; break;
      case FaultAction::kCorruptReply: ++corrupt_rep; break;
      case FaultAction::kCrashBeforeReply: ++crashes; break;
      case FaultAction::kDelay: ++delays; break;
      case FaultAction::kNodeLoss: break;  // this workload never enables permanent loss
      case FaultAction::kNone: break;
    }
  }
  ASSERT_GT(drops + dups + corrupt_req + corrupt_rep, 0u) << "chaos did not bite";
  EXPECT_EQ(run.stats.faults_injected,
            drops + dups + corrupt_req + corrupt_rep + crashes + delays);
  EXPECT_EQ(run.stats.retries, drops + corrupt_req + corrupt_rep + 2 * crashes);
  EXPECT_EQ(run.stats.timeouts, drops + 2 * crashes);
  EXPECT_EQ(run.stats.recoveries, crashes + epoch_crashes);
  EXPECT_EQ(run.dedup_hits, dups + corrupt_rep);
}

TEST(EpochParallel, MultiEpochChaosStressMatchesSequential) {
  // Longer stress: more epochs and seeds, epoch_threads well above the subORAM count.
  // Run alongside TSan (tools/ci.sh) this doubles as the race regression for the
  // whole pipeline.
  for (const uint64_t seed : {61u, 62u}) {
    const RunResult base = RunWorkload(/*epoch_threads=*/1, seed, true, /*epochs=*/8);
    const RunResult run = RunWorkload(/*epoch_threads=*/6, seed, true, /*epochs=*/8);
    ExpectSameResponses(base, run, 6);
    EXPECT_TRUE(NonVacuousTraceEq(base.trace, run.trace)) << "seed=" << seed;
  }
}

TEST(EpochParallel, ThreadCountBeyondWorkIsHarmless) {
  // More threads than subORAMs/load balancers: workers are clamped to the task count.
  SnoopyConfig cfg;
  cfg.num_load_balancers = 1;
  cfg.num_suborams = 2;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  cfg.epoch_threads = 16;
  Snoopy store(cfg, 7);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 32; ++k) {
    objects.emplace_back(k, Val(k));
  }
  store.Initialize(objects);
  for (uint64_t i = 0; i < 8; ++i) {
    store.SubmitRead(/*client_id=*/1, /*client_seq=*/i, /*key=*/i * 3 % 32);
  }
  std::map<uint64_t, std::vector<uint8_t>> got;
  for (const ClientResponse& resp : store.RunEpoch()) {
    got[resp.client_seq] = resp.value;
  }
  ASSERT_EQ(got.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], Val(i * 3 % 32)) << "seq=" << i;
  }
}

// A task that throws does not stop its siblings at any width: with subORAM 0's
// recovery refused as a rollback, RunEpoch surfaces RollbackDetectedError at every
// epoch_threads, and subORAMs 1 and 2 still apply this epoch's writes, leaving the
// same state whatever the width.
TEST(EpochParallel, FailingTaskLeavesSiblingsIdenticalAtEveryWidth) {
  std::vector<std::vector<uint8_t>> baseline;
  for (const int threads : {1, 2, 4}) {
    SnoopyConfig cfg;
    cfg.num_suborams = 3;
    cfg.value_size = kValueSize;
    cfg.lambda = 40;
    cfg.epoch_threads = threads;
    auto store = std::make_unique<Snoopy>(cfg, 11);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 48; ++k) {
      objects.emplace_back(k, Val(k));
    }
    store->Initialize(objects);
    FaultInjector injector(11);
    store->set_fault_injector(&injector);

    // Capture the snapshot sealed at this boundary, then let a later epoch bump the
    // trusted counter past it.
    store->SubmitWrite(1, 1, 0, Val(0, 1));
    store->RunEpoch();
    const std::vector<uint8_t> stale = store->suboram_snapshot(0);
    store->SubmitWrite(1, 2, 0, Val(0, 2));
    store->RunEpoch();

    // Malicious host replays the superseded snapshot to a crashed subORAM 0, while
    // this epoch writes to every partition.
    store->host_replace_snapshot(0, stale);
    injector.MarkCrashed("suboram/0");
    std::vector<uint64_t> written;
    uint64_t seq = 3;
    for (uint64_t k = 1; k < 48; k += 5) {
      store->SubmitWrite(1, seq++, k, Val(k, 7));
      written.push_back(k);
    }
    EXPECT_THROW(store->RunEpoch(), RollbackDetectedError) << "threads=" << threads;

    std::vector<std::vector<uint8_t>> state;
    size_t landed = 0;
    for (uint32_t so = 1; so < 3; ++so) {
      const ByteSlab slab = store->suboram(so).ExportSlab();
      for (size_t i = 0; i < slab.size(); ++i) {
        uint64_t key;
        std::memcpy(&key, slab.Record(i), 8);
        const std::vector<uint8_t> value(slab.Record(i) + 8,
                                         slab.Record(i) + 8 + kValueSize);
        const bool was_written =
            std::find(written.begin(), written.end(), key) != written.end();
        EXPECT_EQ(value, Val(key, was_written ? 7 : 0))
            << "threads=" << threads << " so=" << so << " key=" << key;
        landed += was_written ? 1 : 0;
      }
      state.emplace_back(slab.data(), slab.data() + slab.size() * slab.record_bytes());
    }
    EXPECT_GT(landed, 0u) << "no write landed on subORAMs 1 and 2";
    if (baseline.empty()) {
      baseline = state;
    } else {
      EXPECT_EQ(state, baseline) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace snoopy
