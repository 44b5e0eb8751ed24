#include "src/core/request.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/core/snoopy.h"
#include "src/crypto/rng.h"

namespace snoopy {
namespace {

TEST(RequestBatch, SerializeDeserializeRoundTrip) {
  RequestBatch batch(24);
  Rng rng(1);
  for (int i = 0; i < 17; ++i) {
    RequestHeader h;
    h.key = rng.Next64() >> 1;
    h.op = static_cast<uint8_t>(i % 2);
    h.client_id = static_cast<uint64_t>(i);
    h.client_seq = static_cast<uint64_t>(i * 10);
    std::vector<uint8_t> value(24);
    rng.Fill(value.data(), value.size());
    batch.Append(h, value);
  }
  const std::vector<uint8_t> wire = batch.Serialize();
  RequestBatch copy = RequestBatch::Deserialize(wire);
  ASSERT_EQ(copy.size(), batch.size());
  ASSERT_EQ(copy.value_size(), batch.value_size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(copy.Header(i).key, batch.Header(i).key);
    EXPECT_EQ(copy.Header(i).client_seq, batch.Header(i).client_seq);
    EXPECT_EQ(0, std::memcmp(copy.Value(i), batch.Value(i), 24));
  }
}

TEST(RequestBatch, EmptySerializeRoundTrip) {
  RequestBatch batch(160);
  RequestBatch copy = RequestBatch::Deserialize(batch.Serialize());
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(copy.value_size(), 160u);
}

TEST(RequestBatch, DeserializeRejectsMalformedLengths) {
  RequestBatch batch(24);
  RequestHeader h;
  batch.Append(h, std::vector<uint8_t>(24, 1));
  batch.Append(h, std::vector<uint8_t>(24, 2));
  const std::vector<uint8_t> wire = batch.Serialize();

  // Shorter than the 16-byte header, and truncated inside the records.
  EXPECT_THROW(RequestBatch::Deserialize(std::span<const uint8_t>(wire.data(), 15)),
               IntegrityError);
  EXPECT_THROW(
      RequestBatch::Deserialize(std::span<const uint8_t>(wire.data(), wire.size() - 1)),
      IntegrityError);
  // Trailing bytes past the last record.
  std::vector<uint8_t> trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(RequestBatch::Deserialize(trailing), IntegrityError);
  // A count whose product with the record size wraps to exactly the real body size:
  // record_bytes = 2^tz * odd, so (2 + 2^(64 - tz)) * record_bytes == 2 * record_bytes
  // mod 2^64. Only the overflow check tells it from the real count of 2.
  std::vector<uint8_t> overflow = wire;
  const uint64_t record_bytes = RequestBatch::kHeaderBytes + 24;
  const int tz = __builtin_ctzll(record_bytes);
  ASSERT_GT(tz, 0);
  const uint64_t wrapping = 2 + (uint64_t{1} << (64 - tz));
  ASSERT_EQ(wrapping * record_bytes, 2 * record_bytes);
  std::memcpy(overflow.data() + 8, &wrapping, 8);
  EXPECT_THROW(RequestBatch::Deserialize(overflow), IntegrityError);
  // A value size that wraps the record size.
  std::vector<uint8_t> huge_value = wire;
  const uint64_t vs = ~uint64_t{0} - 1;
  std::memcpy(huge_value.data(), &vs, 8);
  EXPECT_THROW(RequestBatch::Deserialize(huge_value), IntegrityError);
  // The well-formed input still round-trips.
  EXPECT_EQ(RequestBatch::Deserialize(wire).size(), 2u);
}

TEST(RequestBatch, ValueTruncationOnAppend) {
  RequestBatch batch(8);
  RequestHeader h;
  std::vector<uint8_t> big(20, 0xAA);
  batch.Append(h, big);  // larger than value_size: truncated, no overflow
  EXPECT_EQ(batch.Value(0)[7], 0xAA);
}

TEST(RequestHeader, FieldOffsetsMatchSchemas) {
  // The oblivious routines address fields by byte offset; a layout change must break
  // loudly here rather than silently corrupt batches.
  EXPECT_EQ(offsetof(RequestHeader, key), kRequestOhtSchema.key_offset);
  EXPECT_EQ(offsetof(RequestHeader, bin), kRequestBinSchema.bin_offset);
  EXPECT_EQ(offsetof(RequestHeader, dummy), kRequestBinSchema.dummy_offset);
  EXPECT_EQ(offsetof(RequestHeader, order), kRequestBinSchema.order_offset);
  EXPECT_EQ(offsetof(RequestHeader, dedup), kRequestBinSchema.dedup_offset);
  EXPECT_EQ(sizeof(RequestHeader), RequestBatch::kHeaderBytes);
}

TEST(ObliviousInit, MatchesPlainInitBehaviour) {
  // Both initialization paths must produce identical stores: every key readable with
  // its value, partitioned to the same subORAMs.
  for (const bool oblivious : {false, true}) {
    SnoopyConfig cfg;
    cfg.num_suborams = 3;
    cfg.value_size = 16;
    cfg.lambda = 40;
    cfg.oblivious_init = oblivious;
    auto store = std::make_unique<Snoopy>(cfg, /*seed=*/42);  // same seed: same hash key
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
    for (uint64_t k = 0; k < 200; ++k) {
      objects.emplace_back(k, std::vector<uint8_t>(16, static_cast<uint8_t>(k)));
    }
    store->Initialize(objects);
    for (uint64_t k = 0; k < 200; k += 17) {
      store->SubmitRead(1, k, k);
    }
    for (const ClientResponse& resp : store->RunEpoch()) {
      EXPECT_EQ(resp.value, std::vector<uint8_t>(16, static_cast<uint8_t>(resp.key)))
          << "oblivious=" << oblivious << " key=" << resp.key;
    }
  }
}

}  // namespace
}  // namespace snoopy
