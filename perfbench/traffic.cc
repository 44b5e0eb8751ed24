#include "perfbench/traffic.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kPinnedClientId = 1;
constexpr uint64_t kFirstSessionId = 1000;

}  // namespace

bool LookupWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "sort_bound") {
    // Small store, large batches: LB bin placement, match sorts and OHT build.
    w.objects = 8192;
    w.setups_per_round = 5;
    w.closed_batch = 8192;
    w.open_rate = 8000;
  } else if (name == "scan_bound") {
    // Large store, small batches: the subORAM linear scan.
    w.objects = 65536;
    w.closed_batch = 512;
    w.open_rate = 1000;
  } else if (name == "durable_clients") {
    // Striped sealed state, attested client sessions, Zipf keys.
    w.objects = 16384;
    w.closed_batch = 1024;
    w.open_rate = 1500;
    w.zipf_theta = 0.99;
    w.clients = 64;
    w.striping.replicas = 2;
    w.striping.xor_parity = true;
  } else {
    return false;
  }
  *out = w;
  return true;
}

snoopy::SnoopyConfig DeploymentConfig(const Workload& w) {
  snoopy::SnoopyConfig cfg;
  cfg.num_load_balancers = kLoadBalancers;
  cfg.num_suborams = kSubOrams;
  cfg.value_size = kValueSize;
  cfg.epoch_threads = kEpochThreads;
  cfg.striping = w.striping;
  return cfg;
}

void FillValue(uint64_t key, uint64_t tag, uint8_t* out) {
  std::memcpy(out, &tag, 8);
  std::memcpy(out + 8, &key, 8);
  uint64_t state = key * 0x2545f4914f6cdd1dULL ^ tag;
  for (size_t off = 16; off < kValueSize; off += 8) {
    const uint64_t word = SplitMix(state);
    std::memcpy(out + off, &word, std::min<size_t>(8, kValueSize - off));
  }
}

std::vector<uint8_t> MakeValue(uint64_t key, uint64_t tag) {
  std::vector<uint8_t> v(kValueSize);
  FillValue(key, tag, v.data());
  return v;
}

Objects MakeObjects(uint64_t n) {
  Objects objects;
  objects.reserve(n);
  for (uint64_t key = 0; key < n; ++key) {
    objects.emplace_back(key, MakeValue(key, 0));
  }
  return objects;
}

Deployment Deploy(const Workload& w, const Objects& objects, uint64_t seed) {
  Deployment d;
  d.snoopy = std::make_unique<snoopy::Snoopy>(DeploymentConfig(w), seed);
  d.snoopy->Initialize(objects);
  for (uint32_t c = 0; c < w.clients; ++c) {
    d.clients.push_back(std::make_unique<snoopy::SnoopyClient>(
        *d.snoopy, kFirstSessionId + c, seed * 31 + c));
  }
  return d;
}

Traffic::Traffic(const Workload& w, Deployment& deployment, uint64_t seed)
    : w_(w),
      deployment_(deployment),
      keys_(w.objects, kWriteFraction, seed * 0x9e3779b97f4a7c15ULL + 7),
      pick_(seed ^ 0x5bd1e995ULL),
      oracle_(w.clients > 0 ? Oracle::Mode::kClientSessions : Oracle::Mode::kPinnedLb,
              kLoadBalancers, w.objects),
      session_ids_(w.clients),
      value_(kValueSize) {}

std::vector<Request> Traffic::Generate(size_t n) {
  const std::vector<snoopy::WorkloadRequest> drawn =
      w_.zipf_theta > 0 ? keys_.Zipfian(n, w_.zipf_theta) : keys_.Uniform(n);
  std::vector<Request> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].key = drawn[i].key;
    out[i].is_write = drawn[i].is_write;
    if (w_.clients > 0) {
      out[i].client = static_cast<uint32_t>(pick_() % w_.clients);
    } else {
      out[i].lb = static_cast<uint32_t>(pick_() % kLoadBalancers);
    }
  }
  return out;
}

uint64_t Traffic::Submit(const Request& r) {
  const uint64_t id = next_id_++;
  const uint64_t tag = oracle_.Expect(id, r.lb, r.key, r.is_write);
  if (r.is_write) {
    FillValue(r.key, tag, value_.data());
  }
  snoopy::Snoopy& s = *deployment_.snoopy;
  if (w_.clients == 0) {
    if (r.is_write) {
      s.SubmitWriteWithLb(r.lb, kPinnedClientId, id, r.key, value_);
    } else {
      s.SubmitReadWithLb(r.lb, kPinnedClientId, id, r.key);
    }
    return id;
  }
  snoopy::SnoopyClient& c = *deployment_.clients[r.client];
  const uint64_t seq = r.is_write ? c.Write(r.key, value_) : c.Read(r.key);
  std::vector<uint64_t>& ids = session_ids_[r.client];
  if (seq != ids.size()) {
    throw std::logic_error("client sequence numbers are not dense");
  }
  ids.push_back(id);
  return id;
}

Traffic::EpochResult Traffic::RunEpoch() {
  EpochResult out;
  std::vector<Oracle::Delivery> deliveries;
  std::vector<snoopy::ClientResponse> pinned;
  std::vector<std::vector<snoopy::SnoopyClient::Response>> fetched(w_.clients);
  try {
    const double t0 = Now();
    pinned = deployment_.snoopy->RunEpoch();
    const double t1 = Now();
    for (uint32_t c = 0; c < w_.clients; ++c) {
      fetched[c] = deployment_.clients[c]->FetchResponses();
    }
    out.run_s = t1 - t0;
    out.fetch_s = Now() - t1;
  } catch (const std::exception& e) {
    // Every request of the epoch goes unanswered; the oracle counts them.
    std::fprintf(stderr, "epoch failed: %s\n", e.what());
    pinned.clear();
    for (auto& f : fetched) {
      f.clear();
    }
  }
  for (const snoopy::ClientResponse& r : pinned) {
    const uint64_t id = r.client_id == kPinnedClientId ? r.client_seq : Oracle::kUnknownId;
    deliveries.push_back({id, r.key, r.value.size() == kValueSize ? r.value.data() : nullptr});
  }
  for (uint32_t c = 0; c < w_.clients; ++c) {
    const std::vector<uint64_t>& ids = session_ids_[c];
    for (const snoopy::SnoopyClient::Response& r : fetched[c]) {
      const uint64_t id = r.client_seq < ids.size() ? ids[r.client_seq] : Oracle::kUnknownId;
      deliveries.push_back(
          {id, r.key, r.value.size() == kValueSize ? r.value.data() : nullptr});
    }
  }
  out.responses = deliveries.size();
  out.ok = oracle_.CloseEpoch(deliveries);
  return out;
}

}  // namespace perfbench
