// Tests for the dispatching SIMD kernel layer (src/obl/kernels.h): differential
// fuzzing of every supported backend against the scalar TCB primitives (and of the
// fused bucket scan against the per-slot three-copy sequence), dispatch override
// plumbing, trace identity of the blocked sort and the subORAM scan across backends,
// and the vectorized ChaCha20 keystream against the scalar block function.

#include "src/obl/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/core/request.h"
#include "src/core/suboram.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/rng.h"
#include "src/enclave/trace.h"
#include "src/obl/bitonic_sort.h"
#include "src/obl/primitives.h"
#include "src/obl/secret.h"
#include "src/obl/slab.h"

namespace snoopy {
namespace {

// Restores the dispatch state a test mutated, even on assertion failure.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveKernelBackend()) {}
  ~BackendGuard() { SetKernelBackend(saved_); }

 private:
  KernelBackend saved_;
};

TEST(KernelDispatch, SupportedBackendsStartWithGeneric) {
  const std::vector<KernelBackend> backends = SupportedKernelBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), KernelBackend::kGeneric);
  for (const KernelBackend backend : backends) {
    EXPECT_TRUE(KernelBackendSupported(backend)) << KernelBackendName(backend);
    EXPECT_NE(std::string(KernelBackendName(backend)), "");
  }
}

TEST(KernelDispatch, SetAndResetControlActiveBackend) {
  BackendGuard guard;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    EXPECT_EQ(ActiveKernelBackend(), backend);
  }
}

TEST(KernelDispatch, ForceGenericEnvOverride) {
  BackendGuard guard;
  ASSERT_EQ(setenv("SNOOPY_FORCE_GENERIC_KERNELS", "1", 1), 0);
  ResetKernelBackend();
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kGeneric);
  ASSERT_EQ(unsetenv("SNOOPY_FORCE_GENERIC_KERNELS"), 0);
  ResetKernelBackend();
  // After clearing the override the resolver picks the widest supported backend.
  EXPECT_EQ(ActiveKernelBackend(), SupportedKernelBackends().back());
}

TEST(KernelDispatch, BackendEnvSelection) {
  BackendGuard guard;
  // The force flag wins over SNOOPY_KERNEL_BACKEND by design, and the ci.sh
  // forced-generic stage exports it for every test; drop it so this test exercises
  // the named-backend path it is about.
  ASSERT_EQ(unsetenv("SNOOPY_FORCE_GENERIC_KERNELS"), 0);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    ASSERT_EQ(setenv("SNOOPY_KERNEL_BACKEND", KernelBackendName(backend), 1), 0);
    ResetKernelBackend();
    EXPECT_EQ(ActiveKernelBackend(), backend) << KernelBackendName(backend);
  }
  ASSERT_EQ(unsetenv("SNOOPY_KERNEL_BACKEND"), 0);
  ResetKernelBackend();
}

// Differential fuzz: every backend must produce byte-identical results to the scalar
// primitives for every length 0..1024 at a spread of misalignments (both pointers,
// independently) and for both mask values. Buffers carry guard bytes so out-of-bounds
// writes are caught too.
TEST(Kernels, CondCopyMatchesScalarEverywhere) {
  Rng rng(101);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (int iter = 0; iter < 400; ++iter) {
      const size_t n = static_cast<size_t>(rng.Uniform(1025));
      const size_t mis_d = static_cast<size_t>(rng.Uniform(32));
      const size_t mis_s = static_cast<size_t>(rng.Uniform(32));
      const uint64_t mask = (rng.Uniform(2) != 0) ? ~uint64_t{0} : 0;
      std::vector<uint8_t> dst(n + 64 + mis_d);
      std::vector<uint8_t> src(n + 64 + mis_s);
      for (auto& b : dst) b = static_cast<uint8_t>(rng.Next64());
      for (auto& b : src) b = static_cast<uint8_t>(rng.Next64());
      std::vector<uint8_t> want = dst;
      CtCondCopyBytesMask(mask, want.data() + mis_d, src.data() + mis_s, n);
      KernelCondCopyBytesMask(mask, dst.data() + mis_d, src.data() + mis_s, n);
      ASSERT_EQ(dst, want) << KernelBackendName(backend) << " n=" << n << " mis_d=" << mis_d
                           << " mis_s=" << mis_s << " mask=" << mask;
    }
  }
}

TEST(Kernels, CondSwapMatchesScalarEverywhere) {
  Rng rng(102);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (int iter = 0; iter < 400; ++iter) {
      const size_t n = static_cast<size_t>(rng.Uniform(1025));
      const size_t mis_a = static_cast<size_t>(rng.Uniform(32));
      const size_t mis_b = static_cast<size_t>(rng.Uniform(32));
      const uint64_t mask = (rng.Uniform(2) != 0) ? ~uint64_t{0} : 0;
      std::vector<uint8_t> a(n + 64 + mis_a);
      std::vector<uint8_t> b(n + 64 + mis_b);
      for (auto& x : a) x = static_cast<uint8_t>(rng.Next64());
      for (auto& x : b) x = static_cast<uint8_t>(rng.Next64());
      std::vector<uint8_t> want_a = a;
      std::vector<uint8_t> want_b = b;
      CtCondSwapBytesMask(mask, want_a.data() + mis_a, want_b.data() + mis_b, n);
      KernelCondSwapBytesMask(mask, a.data() + mis_a, b.data() + mis_b, n);
      ASSERT_EQ(a, want_a) << KernelBackendName(backend) << " n=" << n;
      ASSERT_EQ(b, want_b) << KernelBackendName(backend) << " n=" << n;
    }
  }
}

TEST(Kernels, TailSizesExercised) {
  // Deterministic sweep of the scalar-tail sizes 1..7 on top of every vector width
  // boundary, all misalignments 0..31.
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t base : {size_t{0}, size_t{16}, size_t{32}, size_t{64}, size_t{128}}) {
      for (size_t tail = 1; tail <= 7; ++tail) {
        const size_t n = base + tail;
        for (size_t mis = 0; mis < 32; ++mis) {
          std::vector<uint8_t> a(n + 64 + mis);
          std::vector<uint8_t> b(n + 64 + mis);
          for (size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<uint8_t>(i * 7 + 1);
            b[i] = static_cast<uint8_t>(i * 13 + 5);
          }
          std::vector<uint8_t> want_a = a;
          std::vector<uint8_t> want_b = b;
          CtCondSwapBytesMask(~uint64_t{0}, want_a.data() + mis, want_b.data() + mis, n);
          KernelCondSwapBytesMask(~uint64_t{0}, a.data() + mis, b.data() + mis, n);
          ASSERT_EQ(a, want_a) << KernelBackendName(backend) << " n=" << n << " mis=" << mis;
          ASSERT_EQ(b, want_b) << KernelBackendName(backend) << " n=" << n << " mis=" << mis;
        }
      }
    }
  }
}

TEST(Kernels, EqualMatchesScalarIncludingTailDiffs) {
  Rng rng(103);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{16}, size_t{31}, size_t{63},
                           size_t{64}, size_t{160}, size_t{208}, size_t{1024}}) {
      for (size_t mis = 0; mis < 8; ++mis) {
        std::vector<uint8_t> a(n + 64 + mis);
        for (auto& x : a) x = static_cast<uint8_t>(rng.Next64());
        std::vector<uint8_t> b = a;
        EXPECT_TRUE(KernelEqualBytes(a.data() + mis, b.data() + mis, n))
            << KernelBackendName(backend) << " n=" << n;
        EXPECT_EQ(KernelSecretEqualBytes(a.data() + mis, b.data() + mis, n).mask(),
                  ~uint64_t{0});
        if (n == 0) {
          continue;
        }
        // Flip one byte at the front, the back (tail position), and somewhere middle.
        for (const size_t pos : {size_t{0}, n - 1, n / 2}) {
          b[mis + pos] ^= 0x40;
          EXPECT_FALSE(KernelEqualBytes(a.data() + mis, b.data() + mis, n))
              << KernelBackendName(backend) << " n=" << n << " pos=" << pos;
          EXPECT_EQ(KernelSecretEqualBytes(a.data() + mis, b.data() + mis, n).mask(),
                    uint64_t{0});
          b[mis + pos] ^= 0x40;
        }
      }
    }
  }
}

TEST(Kernels, SecretBoolFormsMatchMaskForms) {
  BackendGuard guard;
  for (const KernelBackend backend : SupportedKernelBackends()) {
    SetKernelBackend(backend);
    std::vector<uint8_t> a(208, 1);
    std::vector<uint8_t> b(208, 2);
    KernelCondSwapBytes(SecretBool::FromBool(true), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 2);
    EXPECT_EQ(b[0], 1);
    KernelCondCopyBytes(SecretBool::FromBool(false), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 2);
    KernelCondCopyBytes(SecretBool::FromBool(true), a.data(), b.data(), a.size());
    EXPECT_EQ(a[0], 1);
  }
}

// --- Fused bucket scan vs the per-slot three-copy sequence -----------------------

// The subORAM's former per-slot body, kept here as the reference semantics:
//   old <- obj; obj <- W ? req : obj; req <- M ? old : req; req <- D ? 0 : req.
void ThreeCopyScanReference(const std::vector<ScanSlotMasks>& masks, uint8_t* obj,
                            uint8_t* slots, size_t stride, size_t value_size) {
  std::vector<uint8_t> old(value_size);
  const std::vector<uint8_t> zeros(value_size, 0);
  for (size_t s = 0; s < masks.size(); ++s) {
    uint8_t* req = slots + s * stride;
    std::memcpy(old.data(), obj, value_size);
    CtCondCopyBytesMask(masks[s].write, obj, req, value_size);
    CtCondCopyBytesMask(masks[s].respond, req, old.data(), value_size);
    CtCondCopyBytesMask(masks[s].deny, req, zeros.data(), value_size);
  }
}

// Masks as the subORAM derives them from (match, is_write, granted) per slot.
// `matches` slots (chosen at random) match; one of them is denied when `deny_one`.
std::vector<ScanSlotMasks> SubOramStyleMasks(Rng& rng, size_t n_slots, size_t matches,
                                             bool deny_one) {
  std::vector<bool> match(n_slots, false);
  for (size_t placed = 0; placed < matches && placed < n_slots;) {
    const size_t s = static_cast<size_t>(rng.Uniform(n_slots));
    if (!match[s]) {
      match[s] = true;
      ++placed;
    }
  }
  bool denied = false;
  std::vector<ScanSlotMasks> masks(n_slots);
  for (size_t s = 0; s < n_slots; ++s) {
    const bool is_write = rng.Uniform(2) != 0;
    const bool granted = !(deny_one && match[s] && !denied);
    denied = denied || (match[s] && !granted);
    masks[s] = ScanSlotMasks{CtMask64(match[s] && is_write && granted), CtMask64(match[s]),
                             CtMask64(match[s] && !granted)};
  }
  return masks;
}

TEST(Kernels, CondScanBucketMatchesThreeCopyReference) {
  Rng rng(103);
  constexpr size_t kHeader = 48;  // the request header preceding each slot's value
  for (const KernelBackend backend : SupportedKernelBackends()) {
    BackendGuard guard;
    SetKernelBackend(backend);
    for (const size_t value_size : {size_t{1}, size_t{8}, size_t{15}, size_t{16}, size_t{31},
                                    size_t{32}, size_t{63}, size_t{64}, size_t{65},
                                    size_t{160}, size_t{200}}) {
      const size_t stride = kHeader + value_size;
      for (int iter = 0; iter < 24; ++iter) {
        const size_t n_slots = 1 + static_cast<size_t>(rng.Uniform(12));
        const size_t mis_obj = static_cast<size_t>(rng.Uniform(64));
        const size_t mis_slots = static_cast<size_t>(rng.Uniform(64));
        std::vector<ScanSlotMasks> masks;
        switch (iter % 5) {
          case 0:  // no matching slot
            masks = SubOramStyleMasks(rng, n_slots, 0, false);
            break;
          case 1:  // exactly one
            masks = SubOramStyleMasks(rng, n_slots, 1, false);
            break;
          case 2:  // several matches in one bucket (no distinctness assumed)
            masks = SubOramStyleMasks(rng, n_slots, 2 + rng.Uniform(n_slots), false);
            break;
          case 3:  // a denied match among others
            masks = SubOramStyleMasks(rng, n_slots, 1 + rng.Uniform(n_slots), true);
            break;
          default:  // arbitrary independent mask triples
            masks.resize(n_slots);
            for (ScanSlotMasks& m : masks) {
              m = ScanSlotMasks{CtMask64(rng.Uniform(2) != 0), CtMask64(rng.Uniform(2) != 0),
                                CtMask64(rng.Uniform(2) != 0)};
            }
        }
        // Guard bytes around both buffers catch any out-of-bounds write; the slot
        // headers between values must come back untouched too.
        std::vector<uint8_t> obj(value_size + 128 + mis_obj);
        std::vector<uint8_t> bucket(n_slots * stride + 128 + mis_slots);
        for (auto& b : obj) b = static_cast<uint8_t>(rng.Next64());
        for (auto& b : bucket) b = static_cast<uint8_t>(rng.Next64());
        std::vector<uint8_t> want_obj = obj;
        std::vector<uint8_t> want_bucket = bucket;
        ThreeCopyScanReference(masks, want_obj.data() + mis_obj,
                               want_bucket.data() + mis_slots + kHeader, stride, value_size);
        KernelCondScanBucket(masks.data(), obj.data() + mis_obj,
                             bucket.data() + mis_slots + kHeader, n_slots, stride,
                             value_size);
        ASSERT_EQ(obj, want_obj) << KernelBackendName(backend) << " value_size=" << value_size
                                 << " slots=" << n_slots << " iter=" << iter;
        ASSERT_EQ(bucket, want_bucket)
            << KernelBackendName(backend) << " value_size=" << value_size
            << " slots=" << n_slots << " iter=" << iter;
      }
    }
  }
}

// End-to-end through the subORAM scan: one batch against one store, run at every
// backend and with two different secret batches of the same public shape. Responses
// and final store contents must agree across backends, and the enclave trace must be
// identical across backends AND across the two secret inputs.
struct ScanRun {
  std::vector<TraceEvent> trace;
  std::vector<uint8_t> responses;
  std::vector<std::vector<uint8_t>> store;
};

ScanRun SubOramScanRun(KernelBackend backend, uint64_t request_seed) {
  BackendGuard guard;
  SetKernelBackend(backend);
  constexpr size_t kValue = 160;
  constexpr uint64_t kObjects = 300;
  SubOramConfig cfg;
  cfg.value_size = kValue;
  cfg.lambda = 40;
  SubOram so(cfg, /*rng_seed=*/5);  // same seed: same per-batch hash keys
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < kObjects; ++k) {
    objects.emplace_back(k, std::vector<uint8_t>(kValue, static_cast<uint8_t>(k)));
  }
  so.Initialize(objects);
  Rng rng(request_seed);
  RequestBatch batch(kValue);
  std::vector<bool> used(kObjects, false);
  for (uint64_t i = 0; i < 40; ++i) {
    uint64_t key = rng.Uniform(kObjects);
    while (used[key]) {
      key = (key + 1) % kObjects;
    }
    used[key] = true;
    RequestHeader h;
    h.key = key;
    h.op = rng.Uniform(2) != 0 ? kOpWrite : kOpRead;
    h.granted = rng.Uniform(5) != 0 ? 1 : 0;
    h.client_seq = i;
    batch.Append(h, std::vector<uint8_t>(kValue, static_cast<uint8_t>(rng.Next64())));
  }
  ScanRun run;
  TraceScope scope;
  RequestBatch out = so.ProcessBatch(std::move(batch));
  run.trace = scope.Events();
  run.responses.assign(out.slab().data(), out.slab().data() + out.size() * out.record_bytes());
  for (uint64_t k = 0; k < kObjects; ++k) {
    std::vector<uint8_t> v;
    so.DebugRead(k, &v);
    run.store.push_back(v);
  }
  return run;
}

TEST(KernelTrace, SubOramScanIdenticalAcrossBackendsAndSecrets) {
  const ScanRun reference = SubOramScanRun(KernelBackend::kGeneric, 1);
  const ScanRun other_secrets = SubOramScanRun(KernelBackend::kGeneric, 2);
  EXPECT_NE(reference.responses, other_secrets.responses);  // the inputs really differ
  EXPECT_TRUE(NonVacuousTraceEq(reference.trace, other_secrets.trace));
  for (const KernelBackend backend : SupportedKernelBackends()) {
    const ScanRun run = SubOramScanRun(backend, 1);
    EXPECT_TRUE(NonVacuousTraceEq(reference.trace, run.trace)) << KernelBackendName(backend);
    EXPECT_EQ(reference.responses, run.responses) << KernelBackendName(backend);
    EXPECT_EQ(reference.store, run.store) << KernelBackendName(backend);
    EXPECT_TRUE(NonVacuousTraceEq(reference.trace, SubOramScanRun(backend, 2).trace))
        << KernelBackendName(backend) << " (second secret input)";
  }
}

TEST(Kernels, SortBlockRecordsDerivation) {
  // Tile = largest power of two with two operand records resident in the L1 budget.
  EXPECT_EQ(SortBlockRecords(208), 64u);
  EXPECT_EQ(SortBlockRecords(160), 64u);
  EXPECT_EQ(SortBlockRecords(1), 16384u);
  // Never below the minimum tile, even for absurd records.
  EXPECT_EQ(SortBlockRecords(1 << 20), 4u);
  for (const size_t rb : {size_t{8}, size_t{24}, size_t{208}, size_t{4096}}) {
    const size_t block = SortBlockRecords(rb);
    EXPECT_EQ(block & (block - 1), 0u) << rb;  // power of two
    if (block > 4) {
      EXPECT_LE(2 * block * rb, kL1TileBytes) << rb;
    }
  }
  // The adaptive-threads threshold is derived from the tile: below 128 tiles of
  // 208-byte records (8192 of them) a sort stays single-threaded.
  EXPECT_EQ(AdaptiveSortThreads(128 * SortBlockRecords(208) - 1, 4, 208), 1);
  EXPECT_GE(AdaptiveSortThreads(128 * SortBlockRecords(208), 4, 208), 1);
}

// --- Trace identity: generic vs SIMD vs blocked ----------------------------------

std::vector<TraceEvent> SlabSortTrace(KernelBackend backend, int threads,
                                      size_t block_records, bool blocked) {
  BackendGuard guard;
  SetKernelBackend(backend);
  ByteSlab slab(333, 24);  // non-power-of-two records, 24B stride
  Rng rng(7);
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint64_t key = rng.Next64();
    std::memcpy(slab.Record(i), &key, 8);
  }
  const auto less = [](const uint8_t* a, const uint8_t* b) {
    return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
  };
  TraceScope scope;
  if (blocked) {
    BitonicSortSlabBlocked(slab, less, threads, block_records);
  } else {
    BitonicSortSlab(slab, less, threads);
  }
  return scope.Events();
}

TEST(KernelTrace, SlabSortTraceIdenticalAcrossBackends) {
  const std::vector<TraceEvent> reference =
      SlabSortTrace(KernelBackend::kGeneric, 1, 0, /*blocked=*/false);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    EXPECT_TRUE(NonVacuousTraceEq(reference, SlabSortTrace(backend, 1, 0, false)))
        << KernelBackendName(backend);
  }
}

TEST(KernelTrace, BlockedSortTraceIdenticalAcrossBlockSizesAndBackends) {
  // The blocked executor replays the depth-first recursion order exactly, so the
  // trace must be byte-identical to the unblocked network for EVERY public tile size
  // and backend, single- and multi-threaded.
  const std::vector<TraceEvent> reference =
      SlabSortTrace(KernelBackend::kGeneric, 1, 0, /*blocked=*/false);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    for (const size_t block : {size_t{2}, size_t{4}, size_t{16}, size_t{64}, size_t{1024}}) {
      EXPECT_TRUE(NonVacuousTraceEq(reference, SlabSortTrace(backend, 1, block, true)))
          << KernelBackendName(backend) << " block=" << block;
      EXPECT_TRUE(NonVacuousTraceEq(reference, SlabSortTrace(backend, 3, block, true)))
          << KernelBackendName(backend) << " block=" << block << " threads=3";
    }
  }
}

TEST(BlockedSort, SortsCorrectlyAtAwkwardSizes) {
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{63}, size_t{200}, size_t{333},
                         size_t{1024}}) {
    for (const size_t block : {size_t{0}, size_t{4}, size_t{64}}) {
      ByteSlab slab(n, 24);
      Rng rng(n * 31 + block);
      std::vector<uint64_t> keys(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = rng.Next64();
        std::memcpy(slab.Record(i), &keys[i], 8);
      }
      BitonicSortSlabBlocked(
          slab,
          [](const uint8_t* a, const uint8_t* b) {
            return LoadSecretU64(a, 0) < LoadSecretU64(b, 0);
          },
          /*threads=*/1, block);
      std::sort(keys.begin(), keys.end());
      for (size_t i = 0; i < n; ++i) {
        uint64_t k;
        std::memcpy(&k, slab.Record(i), 8);
        ASSERT_EQ(k, keys[i]) << "n=" << n << " block=" << block << " i=" << i;
      }
    }
  }
}

// --- ChaCha20: vector keystream vs scalar ----------------------------------------

std::vector<uint8_t> ChaChaCrypt(KernelBackend backend, size_t len, size_t chunk) {
  BackendGuard guard;
  SetKernelBackend(backend);
  std::vector<uint8_t> key(ChaCha20::kKeyBytes);
  std::vector<uint8_t> nonce(ChaCha20::kNonceBytes);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i * 11 + 1);
  for (size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<uint8_t>(i * 29 + 3);
  ChaCha20 cipher(key, nonce, /*counter=*/7);
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) data[i] = static_cast<uint8_t>(i);
  for (size_t off = 0; off < len;) {
    const size_t take = std::min(chunk, len - off);
    cipher.Crypt(data.data() + off, take);
    off += take;
  }
  return data;
}

TEST(ChaChaKernels, SimdKeystreamMatchesScalar) {
  for (const size_t len : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{255},
                           size_t{256}, size_t{257}, size_t{511}, size_t{512}, size_t{513},
                           size_t{4096}, size_t{4109}}) {
    const std::vector<uint8_t> want = ChaChaCrypt(KernelBackend::kGeneric, len, len);
    for (const KernelBackend backend : SupportedKernelBackends()) {
      EXPECT_EQ(ChaChaCrypt(backend, len, len), want)
          << KernelBackendName(backend) << " len=" << len;
    }
  }
}

TEST(ChaChaKernels, ChunkedCryptMatchesOneShot) {
  // Chunk boundaries force partial-block buffering between calls; the SIMD fast path
  // must pick up cleanly after a drain, for every backend.
  const size_t len = 2048 + 21;
  const std::vector<uint8_t> want = ChaChaCrypt(KernelBackend::kGeneric, len, len);
  for (const KernelBackend backend : SupportedKernelBackends()) {
    for (const size_t chunk : {size_t{1}, size_t{37}, size_t{64}, size_t{100}, size_t{512}}) {
      EXPECT_EQ(ChaChaCrypt(backend, len, chunk), want)
          << KernelBackendName(backend) << " chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace snoopy
