// Wire/record types shared by the Snoopy load balancer and subORAM.
//
// Every request, response, and dummy travels as one fixed-stride record: a 48-byte
// header (fields the oblivious algorithms sort/scan on) followed by a runtime-sized
// value payload. Fixed strides are what let the oblivious primitives move records as
// opaque byte blocks, and a common layout lets bin placement (load balancer, Fig. 5)
// and the two-tier hash table (subORAM, Fig. 7) share field offsets.
//
// Real client object keys must stay below 2^63: the top half of the key space is
// reserved for the dummy requests the load balancer fabricates, which need keys that
// are distinct from every real key (the subORAM's distinctness precondition,
// Definition 2) yet indistinguishable in handling.

#ifndef SNOOPY_SRC_CORE_REQUEST_H_
#define SNOOPY_SRC_CORE_REQUEST_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/analysis/batch_bound.h"
#include "src/net/fault.h"
#include "src/obl/bin_placement.h"
#include "src/obl/hash_table.h"
#include "src/obl/slab.h"

namespace snoopy {

enum OpCode : uint8_t {
  kOpRead = 0,
  kOpWrite = 1,
};

// Keys at or above this value are reserved for load-balancer dummies.
inline constexpr uint64_t kDummyKeyBase = uint64_t{1} << 63;

#pragma pack(push, 1)
struct RequestHeader {
  uint64_t key = 0;         // offset 0: object id
  uint32_t bin = 0;         // offset 8: scratch — assigned subORAM / hash bucket
  uint8_t dummy = 0;        // offset 12: padding-dummy flag (the paper's tag bit b)
  uint8_t op = kOpRead;     // offset 13: OpCode
  uint8_t resp = 0;         // offset 14: 1 once this record carries a subORAM response
  uint8_t granted = 1;      // offset 15: access-control verdict (section D); 1 = allowed
  uint64_t order = 0;       // offset 16: scratch — oblivious sort tiebreak
  uint64_t dedup = 0;       // offset 24: scratch — duplicate-group key
  uint64_t client_id = 0;   // offset 32: requesting client, for response routing
  uint64_t client_seq = 0;  // offset 40: client-assigned sequence number
};
#pragma pack(pop)
static_assert(sizeof(RequestHeader) == 48, "header layout is part of the wire format");

// Field offsets handed to the generic oblivious routines.
inline constexpr BinSchema kRequestBinSchema{
    offsetof(RequestHeader, bin), offsetof(RequestHeader, dummy),
    offsetof(RequestHeader, order), offsetof(RequestHeader, dedup)};
inline constexpr OhtSchema kRequestOhtSchema{
    offsetof(RequestHeader, key), offsetof(RequestHeader, bin),
    offsetof(RequestHeader, dummy), offsetof(RequestHeader, order),
    offsetof(RequestHeader, dedup)};

// A batch of request records with a common value size.
class RequestBatch {
 public:
  static constexpr size_t kHeaderBytes = sizeof(RequestHeader);

  RequestBatch() : RequestBatch(0) {}
  explicit RequestBatch(size_t value_size)
      : value_size_(value_size), slab_(0, kHeaderBytes + value_size) {}
  RequestBatch(ByteSlab&& slab, size_t value_size)
      : value_size_(value_size), slab_(std::move(slab)) {}

  size_t size() const { return slab_.size(); }
  size_t value_size() const { return value_size_; }
  size_t record_bytes() const { return slab_.record_bytes(); }

  RequestHeader& Header(size_t i) { return *reinterpret_cast<RequestHeader*>(slab_.Record(i)); }
  const RequestHeader& Header(size_t i) const {
    return *reinterpret_cast<const RequestHeader*>(slab_.Record(i));
  }
  uint8_t* Value(size_t i) { return slab_.Record(i) + kHeaderBytes; }
  const uint8_t* Value(size_t i) const { return slab_.Record(i) + kHeaderBytes; }

  void Append(const RequestHeader& header, std::span<const uint8_t> value) {
    uint8_t* rec = slab_.AppendZero();
    std::memcpy(rec, &header, kHeaderBytes);
    if (!value.empty()) {
      std::memcpy(rec + kHeaderBytes, value.data(),
                  value.size() < value_size_ ? value.size() : value_size_);
    }
  }

  ByteSlab& slab() { return slab_; }
  const ByteSlab& slab() const { return slab_; }

  // Flat serialization for the encrypted channels: value_size(8) | count(8) | records.
  // Deserialize throws IntegrityError unless the input is exactly that long.
  std::vector<uint8_t> Serialize() const;
  static RequestBatch Deserialize(std::span<const uint8_t> bytes);

 private:
  size_t value_size_;
  ByteSlab slab_;
};

inline std::vector<uint8_t> RequestBatch::Serialize() const {
  std::vector<uint8_t> out(16 + slab_.size() * slab_.record_bytes());
  const uint64_t vs = value_size_;
  const uint64_t count = slab_.size();
  std::memcpy(out.data(), &vs, 8);
  std::memcpy(out.data() + 8, &count, 8);
  if (count > 0) {
    std::memcpy(out.data() + 16, slab_.data(), slab_.size() * slab_.record_bytes());
  }
  return out;
}

// True when a `count(8) | ...` frame of `count` records of `record_bytes` each,
// behind a 16-byte header, is exactly `size` bytes long. Both length fields come
// from the wire, so the product is overflow-checked.
inline bool FramedRecordsFit(size_t size, uint64_t count, uint64_t record_bytes) {
  uint64_t body = 0;
  return size >= 16 && !__builtin_mul_overflow(count, record_bytes, &body) &&
         body == size - 16;
}

inline RequestBatch RequestBatch::Deserialize(std::span<const uint8_t> bytes) {
  uint64_t vs = 0;
  uint64_t count = 0;
  if (bytes.size() >= 16) {
    std::memcpy(&vs, bytes.data(), 8);
    std::memcpy(&count, bytes.data() + 8, 8);
  }
  uint64_t record_bytes = 0;
  if (__builtin_add_overflow(vs, uint64_t{kHeaderBytes}, &record_bytes) ||
      !FramedRecordsFit(bytes.size(), count, record_bytes)) {
    throw IntegrityError("request batch");
  }
  ByteSlab slab(static_cast<size_t>(count), static_cast<size_t>(record_bytes));
  if (count > 0) {
    std::memcpy(slab.data(), bytes.data() + 16, slab.size() * slab.record_bytes());
  }
  return RequestBatch(std::move(slab), static_cast<size_t>(vs));
}

}  // namespace snoopy

#endif  // SNOOPY_SRC_CORE_REQUEST_H_
