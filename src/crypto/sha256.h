// SHA-256 (FIPS 180-4). Incremental interface plus one-shot helper.
//
// Used for: integrity digests of out-of-enclave pages (paper section 7), the per-chunk
// digests on host-to-host stripe traffic (DESIGN.md "Failure model"), Merkle tree
// hashing in the key-transparency application, and as the compression function behind
// HMAC-SHA256.
//
// Dispatch: Update hands every run of whole 64-byte blocks to the SHA-NI compression
// when the kernel backend (src/obl/kernels.h) is not kGeneric and the CPU reports
// both `sha` and `sse4.1`; otherwise to the scalar FIPS 180-4 loop. Digests are
// identical either way, so SNOOPY_FORCE_GENERIC_KERNELS=1 or
// SetKernelBackend(kGeneric) selects the scalar path without changing any output.

#ifndef SNOOPY_SRC_CRYPTO_SHA256_H_
#define SNOOPY_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace snoopy {

class Sha256 {
 public:
  static constexpr size_t kDigestBytes = 32;
  static constexpr size_t kBlockBytes = 64;
  using Digest = std::array<uint8_t, kDigestBytes>;

  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(std::span<const uint8_t> data) { Update(data.data(), data.size()); }
  Digest Finalize();

  static Digest Hash(const void* data, size_t len);
  static Digest Hash(std::span<const uint8_t> data) { return Hash(data.data(), data.size()); }

  // True when whole blocks currently go to the SHA-NI compression (see above).
  static bool UsesShaNi();

 private:
  void ProcessBlocks(const uint8_t* data, size_t n_blocks);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockBytes> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_CRYPTO_SHA256_H_
