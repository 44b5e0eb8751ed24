#include "src/core/client.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

namespace snoopy {
namespace {

constexpr size_t kValueSize = 32;

std::vector<uint8_t> ValueFor(uint64_t key, uint8_t version = 0) {
  std::vector<uint8_t> v(kValueSize, 0);
  std::memcpy(v.data(), &key, 8);
  v[8] = version;
  return v;
}

std::unique_ptr<Snoopy> MakeDeployment(uint32_t lbs, uint32_t sos) {
  SnoopyConfig cfg;
  cfg.num_load_balancers = lbs;
  cfg.num_suborams = sos;
  cfg.value_size = kValueSize;
  cfg.lambda = 40;
  auto store = std::make_unique<Snoopy>(cfg, 8);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> objects;
  for (uint64_t k = 0; k < 80; ++k) {
    objects.emplace_back(k, ValueFor(k));
  }
  store->Initialize(objects);
  return store;
}

TEST(SnoopyClient, EncryptedRoundTrip) {
  auto store = MakeDeployment(2, 2);
  SnoopyClient alice(*store, /*client_id=*/100, /*seed=*/1);
  const uint64_t s1 = alice.Read(7);
  const uint64_t s2 = alice.Write(9, ValueFor(9, 3));
  EXPECT_TRUE(alice.FetchResponses().empty()) << "nothing before the epoch executes";

  EXPECT_TRUE(store->RunEpoch().empty()) << "registered clients' responses go sealed";
  std::map<uint64_t, std::vector<uint8_t>> by_seq;
  for (const auto& resp : alice.FetchResponses()) {
    by_seq[resp.client_seq] = resp.value;
  }
  ASSERT_EQ(by_seq.size(), 2u);
  EXPECT_EQ(by_seq[s1], ValueFor(7));
  EXPECT_EQ(by_seq[s2], ValueFor(9)) << "write returns pre-state";

  // Next epoch sees the write.
  const uint64_t s3 = alice.Read(9);
  store->RunEpoch();
  const auto resp = alice.FetchResponses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].client_seq, s3);
  EXPECT_EQ(resp[0].value, ValueFor(9, 3));
}

TEST(SnoopyClient, MultipleClientsGetTheirOwnMail) {
  auto store = MakeDeployment(2, 3);
  SnoopyClient alice(*store, 1, 1);
  SnoopyClient bob(*store, 2, 2);
  alice.Read(10);
  bob.Read(20);
  bob.Read(10);  // same object as Alice: dedup inside the balancer if co-located
  store->RunEpoch();
  const auto a = alice.FetchResponses();
  const auto b = bob.FetchResponses();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].value, ValueFor(10));
  for (const auto& resp : b) {
    EXPECT_EQ(resp.value, ValueFor(resp.key));
  }
  EXPECT_TRUE(alice.FetchResponses().empty()) << "mailbox drains on fetch";
}

TEST(SnoopyClient, DuplicateRegistrationRejected) {
  auto store = MakeDeployment(1, 1);
  SnoopyClient alice(*store, 5, 1);
  EXPECT_THROW(SnoopyClient(*store, 5, 2), std::invalid_argument);
}

TEST(SnoopyClient, UnregisteredSubmissionsStillReturnPlainly) {
  // Mixing the low-level Submit* API (tests, embedding) with registered clients.
  auto store = MakeDeployment(1, 2);
  SnoopyClient alice(*store, 100, 1);
  alice.Read(3);
  store->SubmitRead(/*client_id=*/999, /*client_seq=*/0, /*key=*/4);  // unregistered
  const auto plain = store->RunEpoch();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].client_id, 999u);
  EXPECT_EQ(plain[0].value, ValueFor(4));
  ASSERT_EQ(alice.FetchResponses().size(), 1u);
}

TEST(SnoopyClient, OutOfRangeMailboxLbIdIsRejected) {
  // The LB id prefix of a mailbox entry is read before authentication; a host that
  // rewrites it past the last load balancer must get an error, not an
  // out-of-bounds link lookup.
  auto store = MakeDeployment(2, 2);
  SnoopyClient alice(*store, /*client_id=*/100, /*seed=*/1);
  for (const uint32_t bad_lb : {2u, 0xffffffffu}) {
    alice.Read(7);
    store->RunEpoch();
    std::vector<std::vector<uint8_t>>& mailbox = store->host_mailbox(100);
    ASSERT_EQ(mailbox.size(), 1u);
    std::memcpy(mailbox[0].data(), &bad_lb, 4);
    EXPECT_THROW(alice.FetchResponses(), std::runtime_error) << "lb id " << bad_lb;
  }
}

}  // namespace
}  // namespace snoopy
