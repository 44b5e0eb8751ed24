// Response oracle for the benchmark driver.
//
// Pinned-LB traffic (Submit*WithLb) is checked exactly against the Appendix C order:
// epoch, then load-balancer id, then reads before writes, then last write wins --
// the reference model of tests/linearizability_test.cc. Client-session traffic
// (SnoopyClient picks the load balancer itself) is checked more loosely: every
// request is answered exactly once, and each response carries either the key's
// initial value or a value some write to that key submitted so far installed.

#ifndef SNOOPY_PERFBENCH_ORACLE_H_
#define SNOOPY_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Oracle {
 public:
  enum class Mode { kPinnedLb, kClientSessions };
  static constexpr uint64_t kUnknownId = ~uint64_t{0};

  // Keys are [0, num_keys).
  Oracle(Mode mode, uint32_t num_lbs, uint64_t num_keys);

  // Registers request `id` (dense, starting at 0) as submitted into the current
  // epoch. `lb` is ignored for client sessions. Returns the tag a write must carry
  // (0 for reads).
  uint64_t Expect(uint64_t id, uint32_t lb, uint64_t key, bool is_write);

  struct Delivery {
    uint64_t id = kUnknownId;  // kUnknownId: response matched no submitted request
    uint64_t key = 0;
    const uint8_t* value = nullptr;  // kValueSize bytes; null: malformed response
  };
  // Checks the deliveries of the epoch just run against every request registered
  // since the previous call, then starts the next epoch. Returns the ids answered
  // correctly; every other request of the epoch, and every bogus or duplicate
  // delivery, counts as failed.
  std::vector<uint64_t> CloseEpoch(const std::vector<Delivery>& deliveries);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // The first failure, described; empty while none happened.
  const std::string& first_error() const { return first_error_; }

 private:
  struct Op {
    uint64_t id;
    uint32_t lb;
    uint64_t key;
    bool is_write;
    uint64_t tag;
  };
  void Fail(const std::string& what);

  Mode mode_;
  uint32_t num_lbs_;
  uint64_t epoch_ = 0;
  uint64_t next_tag_ = 1;
  std::vector<Op> epoch_ops_;
  std::vector<uint64_t> state_;    // key -> current tag (pinned-LB mode)
  std::vector<uint64_t> tag_key_;  // tag -> key it was written to (index 0 unused)
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;
};

}  // namespace perfbench

#endif  // SNOOPY_PERFBENCH_ORACLE_H_
