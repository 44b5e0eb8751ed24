// Batcher's bitonic sorting network for arbitrary n, with optional thread parallelism.
//
// Bitonic sort performs compare-and-swaps in a fixed, data-independent order, so it is
// oblivious: the network shape depends only on n (public). This is the oblivious sort
// the Snoopy load balancer uses to build batches (paper section 4.2.1); the paper also
// parallelizes it across enclave threads (Figure 13a), which RunBitonicNetwork supports
// by fanning the independent recursive halves out to a bounded thread pool.
//
// Comparators operate on secret record fields and therefore must return SecretBool
// (obl/secret.h), keeping the compare result in the taint domain until it reaches the
// oblivious swap. Branching on it is a compile error.
//
// Complexity: O(n log^2 n) compare-swaps; depth O(log^2 n).

#ifndef SNOOPY_SRC_OBL_BITONIC_SORT_H_
#define SNOOPY_SRC_OBL_BITONIC_SORT_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <memory>

#include "src/enclave/trace.h"
#include "src/obl/kernels.h"
#include "src/obl/parallel.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"
#include "src/telemetry/tracing.h"

namespace snoopy {

// SNOOPY_OBLIVIOUS_BEGIN(bitonic_sort)
// ct-public: n lo m asc threads i j k stride max_threads hw cap block block_records
// ct-public: parallel_threshold kTilesPerParallelSort
// ct-public: TraceSpan SetArg TraceTilesEnabled first_spans
// ct-public: pool first_budget second_budget budget allowed first_fn second_fn
// ct-public: WorkPool OnWorkerThread CurrentThreadBudget
// ct-calls: GreatestPowerOfTwoBelow BitonicNetworkMerge BitonicNetworkSort AdaptiveSortThreads
// ct-calls: first second SortBlockRecords SortBlockRecordsShared SortTileSharers make_unique
// ct-calls: WorkPool Instance Reserve ForkJoin OnWorkerThread CurrentThreadBudget
// ct-calls: assert

namespace internal {

// Largest power of two strictly less than n (n >= 2).
inline size_t GreatestPowerOfTwoBelow(size_t n) {
  size_t k = 1;
  while (k * 2 < n) {
    k *= 2;
  }
  return k;
}

// Runs the two independent halves of a bitonic recursion step, parallel when
// threads > 1. Trace safety: the shared recorder is not thread-safe, so each half
// buffers its cswap events thread-locally (TraceThreadBuffer) and the parent appends
// them after the join in the *sequential* recursion order (first half, then second).
// The split point is public (a function of n alone), so the merged trace is
// byte-identical to a single-threaded run — the trace-identity tests pin this.
//
// Execution goes through the process-wide WorkPool (obl/parallel.h): the first half
// is offered as a *stealable* task that an idle pool worker picks up (or the caller
// reclaims after finishing the second half) — never a freshly spawned thread. Each
// half carries its share of the caller's thread budget, so deeper recursion levels
// stay inside the grant. Forking from inside a pool task whose budget is exhausted
// is the nested-spawn oversubscription bug this layer replaced: hard error in debug
// builds, sequential execution (always correct) in release builds.
template <typename First, typename Second>
void TraceForkJoinHalves(const First& first, const Second& second, int threads) {
  if (threads > 1 && WorkPool::OnWorkerThread() && CurrentThreadBudget() <= 1) {
    assert(!"parallel sort inside a pool task without thread budget; size the "
            "request with AdaptiveSortThreads (src/obl/parallel.h)");
    threads = 1;
  }
  if (threads > 1) {
    std::vector<TraceEvent> first_events;
    std::vector<TraceEvent> second_events;
    // Tile *spans* (tracing.h) get the same treatment as cswap trace events: each
    // half buffers into its own ring and the parent replays first-then-second, so
    // the span sequence matches a single-threaded run. Rings exist only while the
    // tile tracer is on; the normal path allocates nothing.
    std::unique_ptr<SpanRingBuffer> first_spans;
    std::unique_ptr<SpanRingBuffer> second_spans;
    if (TraceTilesEnabled()) {
      first_spans = std::make_unique<SpanRingBuffer>();
      second_spans = std::make_unique<SpanRingBuffer>();
    }
    const int first_budget = threads / 2;
    const int second_budget = threads - threads / 2;
    WorkPool& pool = WorkPool::Instance();
    pool.Reserve(static_cast<size_t>(threads) - 1);
    const std::function<void()> first_fn = [&] {
      ScopedThreadBudget budget{first_budget < 1 ? 1 : first_budget};
      TraceThreadBuffer buffer{&first_events};
      TracerThreadBuffer span_buffer{first_spans.get()};
      first();
    };
    const std::function<void()> second_fn = [&] {
      ScopedThreadBudget budget{second_budget};
      TraceThreadBuffer buffer{&second_events};
      TracerThreadBuffer span_buffer{second_spans.get()};
      second();
    };
    pool.ForkJoin(first_fn, second_fn);
    TraceAppendCurrent(first_events);
    TraceAppendCurrent(second_events);
    if (first_spans != nullptr) {
      TraceSpanAppendCurrent(*first_spans);
      TraceSpanAppendCurrent(*second_spans);
    }
  } else {
    first();
    second();
  }
}

// ---- Tile executor ----
//
// Depth-first bitonic recursion is inherently tile-local for segments that fit in
// cache: once a sort/merge segment is <= B records, every subsequent compare-swap it
// spawns stays inside those B records. The network makes that boundary an explicit,
// public parameter: segments of at most `block` records run on this lean tile path
// (no fork-join dispatch, no thread bookkeeping), and the block size is the same L1
// geometry the sim's cost model uses (kernels.h SortBlockRecords). The tile path
// recurses in exactly the order the forking levels above it do, so the cswap
// sequence -- and therefore the adversary-visible trace -- is byte-identical for
// every block size and thread count (tests/kernels_test.cc pins this against a
// test-local reference network).

template <typename CSwap>
void BitonicTileMerge(size_t lo, size_t n, bool asc, const CSwap& cswap) {
  if (n <= 1) {
    return;
  }
  const size_t m = GreatestPowerOfTwoBelow(n);
  for (size_t i = lo; i < lo + n - m; ++i) {
    cswap(i, i + m, asc);
  }
  BitonicTileMerge(lo, m, asc, cswap);
  BitonicTileMerge(lo + m, n - m, asc, cswap);
}

template <typename CSwap>
void BitonicTileSort(size_t lo, size_t n, bool asc, const CSwap& cswap) {
  if (n <= 1) {
    return;
  }
  const size_t m = n / 2;
  BitonicTileSort(lo, m, !asc, cswap);
  BitonicTileSort(lo + m, n - m, asc, cswap);
  BitonicTileMerge(lo, n, asc, cswap);
}

// ---- Forking levels ----
//
// Segments larger than `block` split at a public point (a function of n alone) and
// hand their two independent halves to TraceForkJoinHalves, which runs them in
// parallel while the thread budget lasts and merges their trace buffers in
// sequential order.

template <typename CSwap>
void BitonicNetworkMerge(size_t lo, size_t n, bool asc, const CSwap& cswap, size_t block,
                         int threads) {
  if (n <= block) {
    // Tile-granularity span (tracer detail >= 2 only). `lo` and `n` are public
    // network geometry — functions of the input size alone — so the span leaks
    // nothing; the gate itself is public global configuration (ct-public above).
    TraceSpan tile(TraceTilesEnabled() ? &Tracer::Global() : nullptr, "tile",
                   "merge_tile", lo);
    tile.SetArg("records", n);
    BitonicTileMerge(lo, n, asc, cswap);
    return;
  }
  const size_t m = GreatestPowerOfTwoBelow(n);
  for (size_t i = lo; i < lo + n - m; ++i) {
    cswap(i, i + m, asc);
  }
  TraceForkJoinHalves([&] { BitonicNetworkMerge(lo, m, asc, cswap, block, threads / 2); },
                      [&] {
                        BitonicNetworkMerge(lo + m, n - m, asc, cswap, block,
                                            threads - threads / 2);
                      },
                      threads);
}

template <typename CSwap>
void BitonicNetworkSort(size_t lo, size_t n, bool asc, const CSwap& cswap, size_t block,
                        int threads) {
  if (n <= block) {
    TraceSpan tile(TraceTilesEnabled() ? &Tracer::Global() : nullptr, "tile",
                   "sort_tile", lo);
    tile.SetArg("records", n);
    BitonicTileSort(lo, n, asc, cswap);
    return;
  }
  const size_t m = n / 2;
  TraceForkJoinHalves([&] { BitonicNetworkSort(lo, m, !asc, cswap, block, threads / 2); },
                      [&] {
                        BitonicNetworkSort(lo + m, n - m, asc, cswap, block,
                                           threads - threads / 2);
                      },
                      threads);
  BitonicNetworkMerge(lo, n, asc, cswap, block, threads);
}

}  // namespace internal

// Runs the bitonic network over n elements. `cswap(i, j, asc)` must compare the
// elements at positions i < j and swap them (obliviously) so that they end up in
// ascending order if asc, descending otherwise. Segments of at most `block_records`
// run on the non-forking tile path (callers derive it from their record size with
// SortBlockRecords; values below 1 mean 1, i.e. forking recursion all the way down).
// `threads` bounds the number of concurrently running workers (1 = fully
// sequential). The cswap sequence is the same for every block size and thread count.
template <typename CSwap>
void RunBitonicNetwork(size_t n, size_t block_records, const CSwap& cswap, int threads = 1) {
  const size_t block = block_records < 1 ? 1 : block_records;
  internal::BitonicNetworkSort(0, n, /*asc=*/true, cswap, block, threads < 1 ? 1 : threads);
}

// Sorts a span of trivially-copyable records in place. `less(a, b)` must be a
// branchless strict weak ordering returning SecretBool (see obl/secret.h). The tile
// is the default L1 geometry for sizeof(T) (see BitonicSortSlab).
template <typename T, typename Less>
void BitonicSort(std::span<T> data, const Less& less, int threads = 1) {
  RunBitonicNetwork(
      data.size(), SortBlockRecordsShared(sizeof(T), SortTileSharers(threads)),
      [&](size_t i, size_t j, bool asc) {
        TraceRecord(TraceOp::kCondSwap, i, j);
        const SecretBool out_of_order = asc ? less(data[j], data[i]) : less(data[i], data[j]);
        OCmpSwap(out_of_order, data[i], data[j]);
      },
      threads);
}

// Sorts a ByteSlab of records in place; `less(a, b)` receives raw record pointers and
// must be branchless, returning SecretBool. Record moves go through the dispatching
// SIMD kernels (obl/kernels.h); the mask is derived once per compare.
//
// Execution is L1-tiled. `block_records = 0` selects the default tile: the record
// stride's share of the L1 tile budget (kernels.h), divided among the sort threads
// that timeshare a core when `threads` exceeds the core count (SortTileSharers) --
// blind L1-sized tiles under oversubscription thrash on every context switch. Block
// geometry is a pure function of public values (stride, threads, core count), so for
// a fixed configuration it is identical across runs and epoch thread counts.
// Callers may pass an explicit block_records to override (benches sweep it; 1 runs
// the forking recursion all the way down).
template <typename Less>
void BitonicSortSlab(ByteSlab& slab, const Less& less, int threads = 1,
                     size_t block_records = 0) {
  const size_t stride = slab.record_bytes();
  const size_t block = block_records > 0
                           ? block_records
                           : SortBlockRecordsShared(stride, SortTileSharers(threads));
  uint8_t* base = slab.data();
  RunBitonicNetwork(
      slab.size(), block,
      [&](size_t i, size_t j, bool asc) {
        TraceRecord(TraceOp::kCondSwap, i, j);
        uint8_t* a = base + i * stride;
        uint8_t* b = base + j * stride;
        const SecretBool out_of_order = asc ? less(b, a) : less(a, b);
        KernelCondSwapBytes(out_of_order, a, b, stride);
      },
      threads);
}

// The adaptive policy from the paper (Figure 13a): below a size threshold the thread
// coordination overhead dominates, so fall back to a single thread. The threshold is
// derived from the tile geometry -- forking pays off once the sort spans many
// L1 tiles -- rather than a bare constant; for the paper's 208-byte records this
// yields 128 tiles * 64 records = 8192, the empirical knee in Figure 13a.
inline int AdaptiveSortThreads(size_t n, int max_threads, size_t record_bytes = 208) {
  constexpr size_t kTilesPerParallelSort = 128;
  const size_t parallel_threshold = kTilesPerParallelSort * SortBlockRecords(record_bytes);
  if (n < parallel_threshold || max_threads < 2) {
    return 1;
  }
  // Inside a pool task the phase's thread grant — not the machine — is the
  // ceiling. Unconditionally assuming ownership of max_threads here was the
  // nested-spawn oversubscription bug (each subORAM task spawning its own sort
  // threads on top of the epoch pool); now the pool context is consulted and a
  // task with no spare budget sorts sequentially. Standalone callers (no pool
  // context) keep the hardware cap.
  if (WorkPool::OnWorkerThread()) {
    const int budget = CurrentThreadBudget();
    const int allowed = budget < 1 ? 1 : budget;
    return max_threads < allowed ? max_threads : allowed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = hw == 0 ? 1 : static_cast<int>(hw);
  return max_threads < cap ? max_threads : cap;
}

// SNOOPY_OBLIVIOUS_END(bitonic_sort)

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_BITONIC_SORT_H_
