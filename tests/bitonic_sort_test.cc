#include "src/obl/bitonic_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/primitives.h"

namespace snoopy {
namespace {

struct Rec {
  uint64_t key;
  uint64_t payload;
};

SecretBool RecLess(const Rec& a, const Rec& b) { return SecretU64(a.key) < SecretU64(b.key); }

class BitonicSortSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BitonicSortSizes, SortsRandomInput) {
  const size_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<Rec> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = Rec{rng.Uniform(1 + n / 2), i};  // duplicates likely
  }
  std::vector<uint64_t> expected;
  for (const Rec& r : data) {
    expected.push_back(r.key);
  }
  std::sort(expected.begin(), expected.end());

  BitonicSort(std::span<Rec>(data), RecLess);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i].key, expected[i]) << "n=" << n << " i=" << i;
  }
  // Payloads must still be a permutation of 0..n-1 (records move as units).
  std::vector<uint64_t> payloads;
  for (const Rec& r : data) {
    payloads.push_back(r.payload);
  }
  std::sort(payloads.begin(), payloads.end());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(payloads[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(ArbitrarySizes, BitonicSortSizes,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                                           100, 127, 128, 129, 255, 500, 1000, 1024, 1025));

TEST(BitonicSort, AlreadySortedAndReversed) {
  for (const bool reversed : {false, true}) {
    std::vector<Rec> data(200);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].key = reversed ? data.size() - i : i;
    }
    BitonicSort(std::span<Rec>(data), RecLess);
    for (size_t i = 1; i < data.size(); ++i) {
      ASSERT_LE(data[i - 1].key, data[i].key);
    }
  }
}

TEST(BitonicSort, MultithreadedMatchesSequential) {
  Rng rng(99);
  // Larger than the default L1 tile for 16-byte records (1024), so the sort forks.
  std::vector<Rec> a(2777);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = Rec{rng.Next64(), i};
  }
  std::vector<Rec> b = a;
  BitonicSort(std::span<Rec>(a), RecLess, 1);
  BitonicSort(std::span<Rec>(b), RecLess, 3);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key);
  }
}

TEST(BitonicSort, SlabVariantSortsRuntimeSizedRecords) {
  const size_t n = 300;
  const size_t stride = 48;
  ByteSlab slab(n, stride);
  Rng rng(4);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Uniform(1000);
    std::memcpy(slab.Record(i), &keys[i], 8);
    std::memset(slab.Record(i) + 8, static_cast<int>(i & 0xff), stride - 8);
  }
  BitonicSortSlab(slab, [](const uint8_t* a, const uint8_t* b) {
    return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
  });
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < n; ++i) {
    uint64_t k;
    std::memcpy(&k, slab.Record(i), 8);
    ASSERT_EQ(k, keys[i]);
  }
}

TEST(BitonicSort, NetworkShapeIsDataIndependent) {
  // Core obliviousness property: the compare-swap sequence depends only on n.
  auto trace_for = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<Rec> data(173);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Rec{rng.Next64(), i};
    }
    TraceScope scope;
    BitonicSort(std::span<Rec>(data), RecLess);
    return scope.Digest();
  };
  EXPECT_EQ(trace_for(1), trace_for(2));
  EXPECT_EQ(trace_for(2), trace_for(999));
}

TEST(BitonicSort, ParallelTraceIsByteIdenticalToSequential) {
  // Regression for the parallel-sort trace race: recursion halves used to push their
  // cswap events into the shared recorder concurrently (a data race, and a scrambled
  // event order). Each half now buffers thread-locally and the parent appends the
  // buffers in recursion order, so the merged trace must be byte-for-byte the
  // sequential one -- not a permutation of it, and not empty. Under TSan (tools/ci.sh)
  // this test also pins the absence of the concurrent push_back.
  auto trace_for = [](int threads) {
    Rng rng(41);
    // Non-power-of-two (exercises the uneven split) and several default tiles of
    // 16-byte records wide, so the halves above the tile really run in parallel.
    std::vector<Rec> data(3333);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Rec{rng.Next64(), i};
    }
    TraceScope scope;
    BitonicSort(std::span<Rec>(data), RecLess, threads);
    return scope.Events();
  };
  const std::vector<TraceEvent> sequential = trace_for(1);
  for (const int threads : {2, 3, 8}) {
    EXPECT_TRUE(NonVacuousTraceEq(sequential, trace_for(threads)))
        << "threads=" << threads;
  }
}

TEST(BitonicSort, SlabParallelTraceIsByteIdenticalToSequential) {
  // Same property through BitonicSortSlab, the fig13a path that exposed the race.
  auto trace_for = [](int threads) {
    const size_t stride = 24;
    ByteSlab slab(2000, stride);  // past the default tile (512 records of 24 B)
    Rng rng(6);
    for (size_t i = 0; i < slab.size(); ++i) {
      const uint64_t key = rng.Next64();
      std::memcpy(slab.Record(i), &key, 8);
    }
    TraceScope scope;
    BitonicSortSlab(
        slab,
        [](const uint8_t* a, const uint8_t* b) {
          return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
        },
        threads);
    return scope.Events();
  };
  EXPECT_TRUE(NonVacuousTraceEq(trace_for(1), trace_for(3)));
}

TEST(AdaptiveSortThreads, SmallInputsStaySequential) {
  EXPECT_EQ(AdaptiveSortThreads(100, 4), 1);
  EXPECT_EQ(AdaptiveSortThreads(1u << 20, 1), 1);
  EXPECT_GE(AdaptiveSortThreads(1u << 20, 4), 1);
}

}  // namespace
}  // namespace snoopy
