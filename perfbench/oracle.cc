#include "perfbench/oracle.h"

#include <cstring>
#include <unordered_map>

#include "perfbench/common.h"

namespace perfbench {

Oracle::Oracle(Mode mode, uint32_t num_lbs, uint64_t num_keys)
    : mode_(mode), num_lbs_(num_lbs), state_(num_keys, 0), tag_key_(1, 0) {}

uint64_t Oracle::Expect(uint64_t id, uint32_t lb, uint64_t key, bool is_write) {
  const uint64_t tag = is_write ? next_tag_++ : 0;
  if (is_write) {
    tag_key_.push_back(key);
  }
  epoch_ops_.push_back({id, lb, key, is_write, tag});
  ++attempted_;
  return tag;
}

void Oracle::Fail(const std::string& what) {
  ++failed_;
  if (first_error_.empty()) {
    first_error_ = "epoch " + std::to_string(epoch_) + ": " + what;
  }
}

std::vector<uint64_t> Oracle::CloseEpoch(const std::vector<Delivery>& deliveries) {
  // Which tag each request's response must carry (pinned-LB mode only).
  std::unordered_map<uint64_t, size_t> index;  // id -> position in epoch_ops_
  index.reserve(epoch_ops_.size());
  for (size_t i = 0; i < epoch_ops_.size(); ++i) {
    index.emplace(epoch_ops_[i].id, i);
  }
  std::vector<uint64_t> expected_tag(epoch_ops_.size(), 0);
  if (mode_ == Mode::kPinnedLb) {
    for (uint32_t lb = 0; lb < num_lbs_; ++lb) {
      // Reads and writes of one (epoch, lb) batch all observe the pre-batch state...
      for (size_t i = 0; i < epoch_ops_.size(); ++i) {
        if (epoch_ops_[i].lb == lb) {
          expected_tag[i] = state_[epoch_ops_[i].key];
        }
      }
      // ...then the batch's writes apply in arrival order: the last one wins.
      for (const Op& op : epoch_ops_) {
        if (op.lb == lb && op.is_write) {
          state_[op.key] = op.tag;
        }
      }
    }
  }

  std::vector<uint8_t> answered(epoch_ops_.size(), 0);
  std::vector<uint64_t> ok;
  ok.reserve(deliveries.size());
  std::vector<uint8_t> want(kValueSize);
  for (const Delivery& d : deliveries) {
    const auto it = index.find(d.id);
    if (it == index.end()) {
      Fail("response for no request of this epoch (id " + std::to_string(d.id) + ")");
      continue;
    }
    const size_t i = it->second;
    const Op& op = epoch_ops_[i];
    if (d.value == nullptr) {
      Fail("request " + std::to_string(op.id) + " got a malformed response");
      continue;
    }
    if (answered[i]++ != 0) {
      Fail("request " + std::to_string(op.id) + " answered twice");
      continue;
    }
    uint64_t tag = expected_tag[i];
    if (mode_ == Mode::kClientSessions) {
      // Initial value, or a value some write to this key submitted so far installed.
      tag = TagOf(d.value);
      if (tag >= tag_key_.size() || (tag != 0 && tag_key_[tag] != op.key)) {
        Fail("request " + std::to_string(op.id) + " saw a value never written to key " +
             std::to_string(op.key));
        continue;
      }
    }
    FillValue(op.key, tag, want.data());
    if (d.key != op.key || std::memcmp(d.value, want.data(), kValueSize) != 0) {
      Fail("request " + std::to_string(op.id) + " on key " + std::to_string(op.key) +
           " got tag " + std::to_string(TagOf(d.value)) + ", expected " +
           std::to_string(tag));
      continue;
    }
    ok.push_back(op.id);
  }
  for (size_t i = 0; i < epoch_ops_.size(); ++i) {
    if (answered[i] == 0) {
      Fail("request " + std::to_string(epoch_ops_[i].id) + " got no response");
    }
  }
  epoch_ops_.clear();
  ++epoch_;
  return ok;
}

}  // namespace perfbench
