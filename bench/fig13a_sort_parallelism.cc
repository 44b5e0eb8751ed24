// Figure 13a: parallelizing bitonic sort across enclave threads. For small inputs the
// coordination overhead makes one thread fastest; for large inputs more threads win,
// and the adaptive policy switches between them.
//
// Runs the real sorting network. Measured multi-thread times show real speedup only
// up to the host's core count; the model column projects the 4-core DC4s_v2
// behaviour the paper plots (crossover and all). Both are printed.
//
// This harness also sweeps the network's L1 tile size (BitonicSortSlab's
// block_records) against a tile of one record -- the forking recursion all the way
// down, the "unblocked" baseline -- on both the plain and the adaptive-thread
// configuration, and emits the whole grid as machine-readable JSON.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/crypto/rng.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/bucket_sort.h"
#include "src/obl/kernels.h"
#include "src/obl/slab.h"
#include "src/sim/cost_model.h"
#include "src/telemetry/bench_json.h"

namespace snoopy {
namespace {

constexpr size_t kRecordBytes = 208;  // header + 160B value, as in the system

void FillSlab(ByteSlab& slab, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < slab.size(); ++i) {
    uint64_t key = rng.Next64();
    std::memcpy(slab.Record(i), &key, 8);
  }
}

// block_records == 0 means the implementation default (SortBlockRecords); 1 runs
// the forking recursion all the way down (no tile path).
double SortTime(size_t n, int threads, size_t block_records, uint64_t seed) {
  ByteSlab slab(n, kRecordBytes);
  FillSlab(slab, seed);
  return TimeSeconds([&] {
    BitonicSortSlab(
        slab,
        [](const uint8_t* a, const uint8_t* b) {
          return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
        },
        threads, block_records);
  });
}

// Strategy-crossover slab: a keyed-hash bin tag (u32 at offset 0) plus a distinct
// sort key (u64 at offset 4) so the (bin, key) order is total and both strategies
// produce byte-identical output. kStrategyBins is sized so the routing geometry is
// viable from ~2^12 records up; lambda matches the deployment default.
constexpr uint64_t kStrategyBins = uint64_t{1} << 16;
constexpr uint32_t kStrategyLambda = 40;

double SortTimeStrategy(size_t n, int threads, SortStrategy strategy, uint64_t seed) {
  ByteSlab slab(n, kRecordBytes);
  Rng rng(seed);
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint32_t bin = static_cast<uint32_t>(rng.Next64() % kStrategyBins);
    const uint64_t key = rng.Next64();
    std::memcpy(slab.Record(i), &bin, 4);
    std::memcpy(slab.Record(i) + 4, &key, 8);
  }
  SortBinSpec spec;
  spec.bin_offset = 0;
  spec.num_bins = kStrategyBins;
  spec.bins_simulatable = true;
  spec.lambda = kStrategyLambda;
  return TimeSeconds([&] {
    ObliviousSortSlab(
        slab, spec,
        [](const uint8_t* a, const uint8_t* b) {
          return LoadSecretU64(a, 4) < LoadSecretU64(b, 4);
        },
        strategy, threads);
  });
}

// Repetitions per strategy-crossover cell. Even, so that each arm runs first on
// exactly half of them.
constexpr int kStrategyReps = 4;

// Median of the strategy arms' repetitions (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace
}  // namespace snoopy

int main(int argc, char** argv) {
  using namespace snoopy;
  const std::string metrics_out = MetricsOutPath(argc, argv);
  MetricsRegistry registry;
  PrintHeader("Figure 13a", "bitonic sort thread scaling (measured + 4-core model)");
  const CostModel model;
  BenchJsonEmitter emitter("fig13a_sort_parallelism");
  // eff(W) = t1 / (W * tW): the classic parallel-efficiency of the W-thread run
  // against the single-thread baseline. With a core per thread it approaches the
  // model's crossover behaviour; threads beyond the core count push it toward 1/W
  // (pure coordination overhead).
  std::printf("%9s | %11s %11s %11s %11s | %7s %7s | %13s %13s\n", "items", "1 thr(s)",
              "2 thr(s)", "3 thr(s)", "adaptive(s)", "eff2", "eff3", "model 1thr(s)",
              "model 3thr(s)");
  for (const size_t n : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14, size_t{1} << 16}) {
    const double t1 = SortTime(n, 1, 0, n);
    const double t2 = SortTime(n, 2, 0, n);
    const double t3 = SortTime(n, 3, 0, n);
    const int adaptive = AdaptiveSortThreads(n, 3, kRecordBytes);
    const double ta = SortTime(n, adaptive, 0, n);
    std::printf("%9zu | %11.3f %11.3f %11.3f %11.3f | %7.2f %7.2f | %13.3f %13.3f\n", n,
                t1, t2, t3, ta, t2 > 0 ? t1 / (2 * t2) : 0.0, t3 > 0 ? t1 / (3 * t3) : 0.0,
                model.BitonicSortSeconds(n, kRecordBytes, 1),
                model.BitonicSortSeconds(n, kRecordBytes, 3));
    for (const auto& [threads, seconds] :
         {std::pair<int, double>{1, t1}, {2, t2}, {3, t3}, {adaptive, ta}}) {
      registry
          .GetHistogram("bench_sort_seconds",
                        {{"threads", std::to_string(threads)}, {"items", std::to_string(n)}})
          .Observe(seconds);
      emitter.AddPoint("sort_threads")
          .Set("items", static_cast<double>(n))
          .Set("threads", static_cast<double>(threads))
          .Set("seconds", seconds)
          .Set("parallel_efficiency",
               threads > 0 && seconds > 0 ? t1 / (threads * seconds) : 0.0)
          .Set("model_seconds", model.BitonicSortSeconds(n, kRecordBytes, threads));
    }
  }

  // Tile sweep: a one-record tile (unblocked) vs tile sizes around the L1-derived
  // default, on one thread and on the adaptive thread count.
  const size_t default_block = SortBlockRecords(kRecordBytes);
  std::printf("\nblocked sweep (record=%zuB, default tile=%zu records):\n", kRecordBytes,
              default_block);
  std::printf("%9s %8s | %12s %12s\n", "items", "tile", "1 thr(s)", "adaptive(s)");
  for (const size_t n : {size_t{1} << 14, size_t{1} << 16}) {
    const int adaptive = AdaptiveSortThreads(n, 3, kRecordBytes);
    const double unblocked1 = SortTime(n, 1, 1, n);
    const double unblockeda = SortTime(n, adaptive, 1, n);
    std::printf("%9zu %8s | %12.3f %12.3f\n", n, "1", unblocked1, unblockeda);
    // The unblocked row is its own baseline, so its speedup is 1.0 by definition;
    // emitting it keeps the field present on every blocked_sort point (the schema
    // checker requires it uniformly, so a consumer can plot the column unguarded).
    emitter.AddPoint("blocked_sort")
        .Set("items", static_cast<double>(n))
        .Set("block_records", 1.0)
        .Set("seconds_1thr", unblocked1)
        .Set("seconds_adaptive", unblockeda)
        .Set("speedup_vs_unblocked_1thr", 1.0);
    for (const size_t block : {default_block / 4, default_block, default_block * 4}) {
      const double b1 = SortTime(n, 1, block, n);
      const double ba = SortTime(n, adaptive, block, n);
      std::printf("%9zu %8zu | %12.3f %12.3f\n", n, block, b1, ba);
      emitter.AddPoint("blocked_sort")
          .Set("items", static_cast<double>(n))
          .Set("block_records", static_cast<double>(block))
          .Set("seconds_1thr", b1)
          .Set("seconds_adaptive", ba)
          .Set("speedup_vs_unblocked_1thr", b1 > 0.0 ? unblocked1 / b1 : 0.0);
    }
  }
  // Strategy crossover: blocked bitonic (the tuned O(n log^2 n) baseline) versus
  // the O(n log n) bucket sort on the same bin-tagged slabs. Below the eligibility
  // knee (n < 4096) the bucket request resolves to bitonic, so those rows document
  // the fallback; past the knee the routing's pass advantage compounds with n. The
  // committed JSON is gated in tools/check_bench_schema.py: bucket must beat
  // bitonic by >= 1.5x at the largest n on one thread. Each cell is the median of
  // kStrategyReps runs per arm, the arms taking turns to run first.
  std::printf("\nstrategy crossover (record=%zuB, %llu bins, lambda=%u):\n", kRecordBytes,
              static_cast<unsigned long long>(kStrategyBins), kStrategyLambda);
  std::printf("%9s %8s | %12s %12s %9s | %13s %13s\n", "items", "threads", "bitonic(s)",
              "bucket(s)", "speedup", "model bit(s)", "model buck(s)");
  for (const size_t n : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14,
                         size_t{1} << 16, size_t{1} << 18, size_t{1} << 20}) {
    BucketSortParams params;
    SortBinSpec spec;
    spec.num_bins = kStrategyBins;
    spec.bins_simulatable = true;
    spec.lambda = kStrategyLambda;
    const SortStrategy resolved = ResolveSortStrategy(SortStrategy::kBucket, n,
                                                      kRecordBytes, &spec, &params);
    for (const int threads : {1, 2, 4}) {
      // Alternate which arm runs first on every repetition, so neither one always
      // inherits the other's warmed caches, allocator and pool workers.
      std::vector<double> bitonic_runs;
      std::vector<double> bucket_runs;
      const auto time_bitonic = [&] {
        bitonic_runs.push_back(SortTimeStrategy(n, threads, SortStrategy::kBitonic, n));
      };
      const auto time_bucket = [&] {
        bucket_runs.push_back(SortTimeStrategy(n, threads, SortStrategy::kBucket, n));
      };
      for (int rep = 0; rep < kStrategyReps; ++rep) {
        if (rep % 2 == 0) {
          time_bitonic();
          time_bucket();
        } else {
          time_bucket();
          time_bitonic();
        }
      }
      const double bitonic_s = Median(bitonic_runs);
      const double bucket_s = Median(bucket_runs);
      std::printf("%9zu %8d | %12.3f %12.3f %8.2fx | %13.3f %13.3f\n", n, threads,
                  bitonic_s, bucket_s, bucket_s > 0 ? bitonic_s / bucket_s : 0.0,
                  model.BitonicSortSeconds(n, kRecordBytes, threads),
                  model.BucketSortSeconds(n, kRecordBytes, kStrategyBins, threads));
      for (const auto& [strategy, seconds] :
           {std::pair<const char*, double>{"bitonic", bitonic_s}, {"bucket", bucket_s}}) {
        emitter.AddPoint("sort_strategy")
            .Set("items", static_cast<double>(n))
            .Set("threads", static_cast<double>(threads))
            .Set("strategy", strategy)
            .Set("resolved_strategy",
                 std::strcmp(strategy, "bucket") == 0 ? SortStrategyName(resolved)
                                                      : "bitonic")
            .Set("seconds", seconds)
            .Set("speedup_vs_bitonic", seconds > 0 ? bitonic_s / seconds : 0.0);
      }
    }
  }

  const std::string path = emitter.WriteFile(".");
  if (!path.empty()) {
    std::printf("\nwrote %s\n", path.c_str());
  }
  WriteMetricsSnapshot(registry, metrics_out);

  std::printf("\npaper shape check (4-core SGX): one thread wins below ~2^13 items, three\n"
              "threads win above; the adaptive policy tracks the winner. The model columns\n"
              "show the projected crossover; measured multi-thread numbers show speedup\n"
              "only up to this host's core count.\n");
  return 0;
}
