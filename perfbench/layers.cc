#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/loops.h"
#include "src/analysis/batch_bound.h"
#include "src/core/load_balancer.h"
#include "src/core/suboram.h"
#include "src/crypto/aead.h"
#include "src/crypto/rng.h"
#include "src/enclave/rollback.h"
#include "src/obl/hash_table.h"
#include "src/sim/cost_model.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/tracing.h"

namespace perfbench {
namespace {

// Share of --seconds for each part of the traced run.
constexpr double kClosedShare = 0.35;
constexpr double kOpenShare = 0.45;
constexpr double kProbeShare = 0.2;
constexpr size_t kMinSamples = 3;

// ---------------------------------------------------------------------------------
// Attribution of RunEpoch wall time to layers, from the spans the program emits.
//
// Leaf pieces: every top-level step span of a task (lb_* -> lb, suboram_scan ->
// scan, other suboram_* -> suboram); the rest of each task's interval, minus its
// steps and minus any task it ran nested on the same worker (a subORAM task helping
// a load balancer prepare) -- lb work for lb_prepare/response_match tasks, the
// batch's channel seal/open and Network call for suboram_execute tasks (net); and
// the orchestrator's deliver and seal phases. Where pieces overlap in time (two
// pool workers), each instant is split equally among them, so the layer times sum
// to the covered wall time; what no piece covers is unattributed.
enum Layer { kLb, kSubOram, kScan, kNet, kSealStripe, kDeliver, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {"lb",  "suboram",     "scan",
                                                  "net", "seal_stripe", "deliver"};

struct Piece {
  double start;
  double end;
  int layer;
};

struct EpochSpans {
  double layer_s[kLayerCount] = {};
  double covered_s = 0;
  double seal_phase_s = 0;
  double deliver_phase_s = 0;
  std::vector<double> scan_s;        // one per ProcessBatch
  std::vector<double> scan_objects;  // objects scanned, per ProcessBatch
  std::vector<double> batch;         // subORAM batch size, per ProcessBatch
};

bool Is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

uint64_t Arg(const snoopy::SpanEvent& e, const char* name) {
  for (int i = 0; i < snoopy::SpanEvent::kMaxArgs; ++i) {
    if (e.arg_names[i] != nullptr && Is(e.arg_names[i], name)) {
      return e.arg_values[i];
    }
  }
  return 0;
}

int StepLayer(const char* name) {
  if (std::strncmp(name, "lb_", 3) == 0) {
    return kLb;
  }
  if (Is(name, "suboram_scan")) {
    return kScan;
  }
  if (std::strncmp(name, "suboram_", 8) == 0) {
    return kSubOram;
  }
  return -1;
}

bool Within(const snoopy::SpanEvent& inner, const snoopy::SpanEvent& outer) {
  return inner.start_s >= outer.start_s && inner.end_s <= outer.end_s;
}

// Appends [start, end) minus the (sorted, disjoint) `holes` as pieces of `layer`.
void AddGaps(double start, double end, const std::vector<std::pair<double, double>>& holes,
             int layer, std::vector<Piece>* pieces) {
  double at = start;
  for (const auto& [hs, he] : holes) {
    if (hs > at) {
      pieces->push_back({at, std::min(hs, end), layer});
    }
    at = std::max(at, he);
  }
  if (end > at) {
    pieces->push_back({at, end, layer});
  }
}

EpochSpans Attribute(const std::vector<snoopy::SpanEvent>& spans) {
  EpochSpans out;
  struct Task {
    const snoopy::SpanEvent* span;
    std::vector<const snoopy::SpanEvent*> steps;
  };
  std::vector<Task> tasks;
  std::vector<const snoopy::SpanEvent*> steps;  // since the last task span
  std::vector<Piece> pieces;
  for (const snoopy::SpanEvent& e : spans) {
    if (Is(e.cat, "step")) {
      if (StepLayer(e.name) < 0) {
        continue;  // nested sort spans: their parent step covers them
      }
      steps.push_back(&e);
      if (Is(e.name, "suboram_scan")) {
        out.scan_s.push_back(e.end_s - e.start_s);
        out.scan_objects.push_back(static_cast<double>(Arg(e, "objects")));
      } else if (Is(e.name, "suboram_distinct")) {
        out.batch.push_back(static_cast<double>(Arg(e, "batch")));
      }
    } else if (Is(e.cat, "task")) {
      // A task's ring holds its step spans followed by the task span itself.
      Task t{&e, {}};
      for (const snoopy::SpanEvent* s : steps) {
        if (Within(*s, e)) {
          t.steps.push_back(s);
        } else {
          pieces.push_back({s->start_s, s->end_s, StepLayer(s->name)});
        }
      }
      steps.clear();
      tasks.push_back(std::move(t));
    } else if (Is(e.cat, "phase") && Is(e.name, "seal")) {
      out.seal_phase_s += e.end_s - e.start_s;
      pieces.push_back({e.start_s, e.end_s, kSealStripe});
    } else if (Is(e.cat, "phase") && Is(e.name, "deliver")) {
      out.deliver_phase_s += e.end_s - e.start_s;
      pieces.push_back({e.start_s, e.end_s, kDeliver});
    }
  }
  for (const snoopy::SpanEvent* s : steps) {
    pieces.push_back({s->start_s, s->end_s, StepLayer(s->name)});
  }
  for (const Task& t : tasks) {
    std::vector<std::pair<double, double>> holes;
    for (const snoopy::SpanEvent* s : t.steps) {
      holes.emplace_back(s->start_s, s->end_s);
      pieces.push_back({s->start_s, s->end_s, StepLayer(s->name)});
    }
    for (const Task& other : tasks) {
      if (&other != &t && other.span->track == t.span->track && Within(*other.span, *t.span)) {
        holes.emplace_back(other.span->start_s, other.span->end_s);
      }
    }
    std::sort(holes.begin(), holes.end());
    const int layer = Is(t.span->name, "suboram_execute") ? kNet : kLb;
    AddGaps(t.span->start_s, t.span->end_s, holes, layer, &pieces);
  }

  // Sweep: split each instant equally among the pieces active in it.
  struct Edge {
    double t;
    int layer;
    int delta;
  };
  std::vector<Edge> edges;
  for (const Piece& p : pieces) {
    if (p.end > p.start) {
      edges.push_back({p.start, p.layer, +1});
      edges.push_back({p.end, p.layer, -1});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  int active[kLayerCount] = {};
  int total = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0 && total > 0) {
      const double dt = edges[i].t - edges[i - 1].t;
      out.covered_s += dt;
      for (int l = 0; l < kLayerCount; ++l) {
        out.layer_s[l] += dt * active[l] / total;
      }
    }
    active[edges[i].layer] += edges[i].delta;
    total += edges[i].delta;
  }
  return out;
}

// ---------------------------------------------------------------------------------
// Probe pipeline: standalone components, each layer timed around its public call.
struct ProbeResult {
  std::vector<double> prepare_s, match_s, process_s, build_s, extract_s;
  std::vector<double> real_per_slot;
  std::vector<double> batch;
  double requests_per_lb = 0;
};

ProbeResult RunProbe(const Workload& w, const Objects& objects, uint64_t seed,
                     double budget_s) {
  const snoopy::SnoopyConfig cfg = DeploymentConfig(w);
  snoopy::Rng rng(seed ^ 0x70b3ULL);
  const snoopy::SipKey partition_key = rng.NextSipKey();
  std::vector<snoopy::LoadBalancer> lbs;
  for (uint32_t lb = 0; lb < kLoadBalancers; ++lb) {
    snoopy::LoadBalancerConfig lbc;
    lbc.id = lb;
    lbc.num_suborams = kSubOrams;
    lbc.value_size = kValueSize;
    lbc.lambda = cfg.lambda;
    lbc.sort_threads = cfg.sort_threads;
    lbc.sort_strategy = cfg.sort_strategy;
    lbs.emplace_back(lbc, partition_key, rng.Next64());
  }
  std::vector<Objects> parts(kSubOrams);
  for (const auto& obj : objects) {
    parts[lbs[0].SubOramOf(obj.first)].push_back(obj);
  }
  std::vector<std::unique_ptr<snoopy::SubOram>> suborams;
  for (uint32_t so = 0; so < kSubOrams; ++so) {
    snoopy::SubOramConfig soc;
    soc.id = so;
    soc.value_size = kValueSize;
    soc.lambda = cfg.lambda;
    soc.sort_threads = cfg.sort_threads;
    soc.sort_strategy = cfg.sort_strategy;
    soc.check_distinct = cfg.check_distinct;
    suborams.push_back(std::make_unique<snoopy::SubOram>(soc, rng.Next64()));
    suborams.back()->Initialize(parts[so]);
  }
  parts.clear();

  snoopy::WorkloadGenerator keys(w.objects, kWriteFraction, seed * 0x2545f4914f6cdd1dULL + 11);
  const uint64_t per_lb = w.closed_batch / kLoadBalancers;
  ProbeResult out;
  out.requests_per_lb = static_cast<double>(per_lb);
  std::vector<uint8_t> value(kValueSize);
  const double end = Now() + budget_s;
  for (uint64_t epoch = 0; Now() < end || out.match_s.size() < kMinSamples * kLoadBalancers;
       ++epoch) {
    std::vector<snoopy::LoadBalancer::PreparedEpoch> prepared(kLoadBalancers);
    for (uint32_t lb = 0; lb < kLoadBalancers; ++lb) {
      const std::vector<snoopy::WorkloadRequest> drawn =
          w.zipf_theta > 0 ? keys.Zipfian(per_lb, w.zipf_theta) : keys.Uniform(per_lb);
      snoopy::RequestBatch batch(kValueSize);
      for (size_t i = 0; i < drawn.size(); ++i) {
        snoopy::RequestHeader h;
        h.key = drawn[i].key;
        h.op = drawn[i].is_write ? snoopy::kOpWrite : snoopy::kOpRead;
        h.client_id = 1;
        h.client_seq = i;
        FillValue(h.key, epoch + 1, value.data());
        batch.Append(h, value);
      }
      const double t0 = Now();
      prepared[lb] = lbs[lb].PrepareBatches(std::move(batch), seed + epoch * kLoadBalancers + lb);
      out.prepare_s.push_back(Now() - t0);
      out.batch.push_back(static_cast<double>(prepared[lb].batch_size));
      out.real_per_slot.push_back(static_cast<double>(per_lb) /
                                  static_cast<double>(kSubOrams * prepared[lb].batch_size));
    }
    std::vector<std::vector<snoopy::RequestBatch>> responses(kLoadBalancers);
    for (uint32_t lb = 0; lb < kLoadBalancers; ++lb) {
      responses[lb].resize(kSubOrams);
    }
    for (uint32_t so = 0; so < kSubOrams; ++so) {
      for (uint32_t lb = 0; lb < kLoadBalancers; ++lb) {
        // Build + extract on a copy of the batch, then the real ProcessBatch.
        snoopy::RequestBatch copy = prepared[lb].suboram_batches[so];
        snoopy::TwoTierOht table(snoopy::kRequestOhtSchema, cfg.lambda);
        double t0 = Now();
        if (!table.Build(std::move(copy.slab()), rng, cfg.sort_threads, cfg.sort_strategy)) {
          throw std::runtime_error("probe hash-table build overflowed");
        }
        out.build_s.push_back(Now() - t0);
        t0 = Now();
        const snoopy::ByteSlab extracted = table.ExtractAll();
        out.extract_s.push_back(Now() - t0);
        snoopy::RequestBatch input = prepared[lb].suboram_batches[so];
        t0 = Now();
        responses[lb][so] = suborams[so]->ProcessBatch(std::move(input));
        out.process_s.push_back(Now() - t0);
        if (extracted.size() != responses[lb][so].size()) {
          throw std::runtime_error("probe extract size differs from ProcessBatch output");
        }
      }
    }
    for (uint32_t lb = 0; lb < kLoadBalancers; ++lb) {
      const double t0 = Now();
      const snoopy::RequestBatch matched =
          lbs[lb].MatchResponses(std::move(prepared[lb]), std::move(responses[lb]));
      out.match_s.push_back(Now() - t0);
      if (matched.size() != per_lb) {
        throw std::runtime_error("probe matched " + std::to_string(matched.size()) +
                                 " responses for " + std::to_string(per_lb) + " requests");
      }
    }
  }
  return out;
}

// Pool phase accounting from the always-on snoopy_pool_* gauges.
struct PoolTotals {
  double busy[3] = {};
  double idle[3] = {};
  double cpu[3] = {};
};
constexpr const char* kPoolPhases[3] = {"lb_prepare", "suboram_execute", "response_match"};

PoolTotals ReadPool() {
  snoopy::MetricsRegistry& reg = snoopy::MetricsRegistry::Global();
  PoolTotals t;
  for (int p = 0; p < 3; ++p) {
    const snoopy::MetricLabels labels{{"phase", kPoolPhases[p]}};
    t.busy[p] = reg.GetGauge("snoopy_pool_busy_seconds_total", labels).value();
    t.idle[p] = reg.GetGauge("snoopy_pool_idle_seconds_total", labels).value();
    t.cpu[p] = reg.GetGauge("snoopy_pool_cpu_busy_seconds_total", labels).value();
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Metrics RunTraced(const Workload& w, const Objects& objects, Traffic& traffic, uint64_t seed,
                  double seconds) {
  snoopy::Tracer& tracer = snoopy::Tracer::Global();
  snoopy::Snoopy& deployment = traffic.snoopy();
  // Our own sealing store: SealState is const, so sealing the deployment's
  // partitions here times the enclave's seal without touching its state.
  snoopy::MonotonicCounterService counters;
  snoopy::SealedStore store(snoopy::Aead::Key{}, &counters);
  std::vector<uint64_t> counter_ids;
  for (uint32_t so = 0; so < kSubOrams; ++so) {
    counter_ids.push_back(counters.Create());
  }

  // Closed loop, alternating untraced and traced epochs.
  std::vector<double> untraced_s, traced_s, submit_us, fetch_us, seal_s, stripe_s;
  std::vector<double> scan_s, scan_ns_per_slot, slots_per_object;
  double layer_s[kLayerCount] = {};
  double covered_s = 0;
  double traced_run_s = 0;
  const PoolTotals pool0 = ReadPool();
  const snoopy::Network::Stats net0 = deployment.network().stats();
  uint64_t closed_epochs = 0;
  uint64_t closed_requests = 0;
  const double closed_end = Now() + kClosedShare * seconds;
  for (int i = 0; Now() < closed_end || traced_s.size() < kMinSamples; ++i) {
    const bool traced = i % 2 == 1;
    if (traced) {
      tracer.Clear();
      tracer.Enable(1);
    }
    const ClosedEpochSample s = ClosedEpoch(traffic, w.closed_batch);
    ++closed_epochs;
    closed_requests += w.closed_batch;
    submit_us.push_back(s.submit_s * 1e6 / static_cast<double>(w.closed_batch));
    if (!traced) {
      untraced_s.push_back(s.wall_s);
      continue;
    }
    tracer.Disable();
    traced_s.push_back(s.wall_s);
    const EpochSpans spans = Attribute(tracer.snapshot());
    for (int l = 0; l < kLayerCount; ++l) {
      layer_s[l] += spans.layer_s[l];
    }
    covered_s += spans.covered_s;
    traced_run_s += s.result.run_s;
    const double responses = static_cast<double>(std::max<size_t>(s.result.responses, 1));
    fetch_us.push_back((w.clients > 0 ? s.result.fetch_s : spans.deliver_phase_s) * 1e6 /
                       responses);
    for (size_t k = 0; k < spans.scan_s.size(); ++k) {
      const uint64_t batch = k < spans.batch.size() ? static_cast<uint64_t>(spans.batch[k]) : 0;
      const double slots = static_cast<double>(
          snoopy::ChooseOhtParams(batch, snoopy::kDefaultLambda).LookupCost());
      scan_s.push_back(spans.scan_s[k]);
      slots_per_object.push_back(slots);
      scan_ns_per_slot.push_back(spans.scan_s[k] * 1e9 / (spans.scan_objects[k] * slots));
    }
    double sealed = 0;
    for (uint32_t so = 0; so < kSubOrams; ++so) {
      const double t0 = Now();
      const std::vector<uint8_t> blob = deployment.suboram(so).SealState(store, counter_ids[so]);
      const double dt = Now() - t0;
      sealed += dt;
      seal_s.push_back(dt);
    }
    stripe_s.push_back(spans.seal_phase_s - sealed);
  }
  const PoolTotals pool1 = ReadPool();
  const snoopy::Network::Stats net1 = deployment.network().stats();

  // Open loop, traced throughout.
  tracer.Clear();
  tracer.Enable(1);
  const OpenLoopResult open =
      OpenLoop(traffic, w.open_rate, kOpenShare * seconds, seed,
               [&tracer](const Traffic::EpochResult&) { tracer.Clear(); });
  tracer.Disable();
  tracer.Clear();

  const ProbeResult probe = RunProbe(w, objects, seed, kProbeShare * seconds);

  // Cost-model predictions for the same shapes, at one thread (each probe call runs
  // single-threaded, as each pool task does inside the deployment).
  const snoopy::CostModel model;
  const auto r = static_cast<uint64_t>(probe.requests_per_lb);
  const auto batch = static_cast<uint64_t>(Median(probe.batch));
  const double model_prepare = model.LbPrepareSeconds(r, kSubOrams, 1);
  const double model_match = model.LbMatchSeconds(r, kSubOrams, 1);
  const double model_build = model.OhtBuildSeconds(batch, 1);
  const double model_batch = model.SubOramBatchSeconds(batch, w.objects / kSubOrams, 1);
  const double prepare = Median(probe.prepare_s);
  const double match = Median(probe.match_s);
  const double build = Median(probe.build_s);
  const double process = Median(probe.process_s);

  double busy = 0;
  double cpu = 0;
  double efficiency[3] = {};
  for (int p = 0; p < 3; ++p) {
    const double b = pool1.busy[p] - pool0.busy[p];
    const double idle = pool1.idle[p] - pool0.idle[p];
    efficiency[p] = Ratio(b, b + idle);
    busy += b;
    cpu += pool1.cpu[p] - pool0.cpu[p];
  }

  std::printf(
      "{\"info\": {\"closed_epochs\": %llu, \"traced_epochs\": %zu, \"open_epochs\": %zu, "
      "\"spans_dropped\": %llu, \"model_base\": {\"requests_per_lb\": %llu, "
      "\"suboram_batch\": %llu, \"objects_per_suboram\": %llu, \"threads\": 1, "
      "\"lb_prepare_model_ms\": %.4f, \"lb_prepare_measured_ms\": %.4f, "
      "\"lb_match_model_ms\": %.4f, \"lb_match_measured_ms\": %.4f, "
      "\"oht_build_model_ms\": %.4f, \"oht_build_measured_ms\": %.4f, "
      "\"suboram_batch_model_ms\": %.4f, \"suboram_batch_measured_ms\": %.4f}}}\n",
      static_cast<unsigned long long>(closed_epochs), traced_s.size(),
      open.epoch_wall_s.size(), static_cast<unsigned long long>(tracer.spans_dropped()),
      static_cast<unsigned long long>(r), static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(w.objects / kSubOrams), model_prepare * 1e3,
      prepare * 1e3, model_match * 1e3, match * 1e3, model_build * 1e3, build * 1e3,
      model_batch * 1e3, process * 1e3);

  Metrics m = {
      {"snoopy.epoch_ms_p50", Quantile(open.epoch_wall_s, 0.5) * 1e3, "ms"},
      {"snoopy.epoch_ms_p90", Quantile(open.epoch_wall_s, 0.9) * 1e3, "ms"},
      {"snoopy.requests_per_epoch", Median(open.epoch_requests), "count"},
      {"snoopy.backlog_end", open.backlog_end, "count"},
      {"snoopy.unattributed_frac", 1 - Ratio(covered_s, traced_run_s), "frac"},
      {"snoopy.trace_overhead_frac", Ratio(Median(traced_s), Median(untraced_s)) - 1, "frac"},
  };
  for (int l = 0; l < kLayerCount; ++l) {
    m.push_back({std::string("snoopy.share.") + kLayerNames[l], Ratio(layer_s[l], traced_run_s),
                 "frac"});
  }
  const double epochs = static_cast<double>(closed_epochs);
  const Metrics rest = {
      {"lb.prepare_ms", prepare * 1e3, "ms"},
      {"lb.match_ms", match * 1e3, "ms"},
      {"lb.real_per_slot", Median(probe.real_per_slot), "frac"},
      {"suboram.process_ms", process * 1e3, "ms"},
      {"suboram.oht_build_ms", build * 1e3, "ms"},
      {"suboram.extract_ms", Median(probe.extract_s) * 1e3, "ms"},
      {"suboram.scan_ms", Median(scan_s) * 1e3, "ms"},
      {"suboram.scan_ns_per_slot", Median(scan_ns_per_slot), "ns"},
      {"suboram.slots_per_object", Median(slots_per_object), "count"},
      {"enclave.seal_ms", Median(seal_s) * 1e3, "ms"},
      {"net.stripe_ms", Median(stripe_s) * 1e3, "ms"},
      {"net.bytes_per_request",
       Ratio(static_cast<double>(net1.bytes_sent - net0.bytes_sent),
             static_cast<double>(closed_requests)),
       "B"},
      {"net.messages_per_epoch",
       Ratio(static_cast<double>(net1.messages - net0.messages), epochs), "count"},
      {"client.submit_us", Median(submit_us), "us"},
      {"client.fetch_us", Median(fetch_us), "us"},
      {"pool.efficiency.lb_prepare", efficiency[0], "frac"},
      {"pool.efficiency.suboram_execute", efficiency[1], "frac"},
      {"pool.efficiency.response_match", efficiency[2], "frac"},
      {"pool.work_inflation", Ratio(busy, cpu), "x"},
      {"model.lb_prepare_ratio", Ratio(model_prepare, prepare), "x"},
      {"model.lb_match_ratio", Ratio(model_match, match), "x"},
      {"model.oht_build_ratio", Ratio(model_build, build), "x"},
      {"model.suboram_batch_ratio", Ratio(model_batch, process), "x"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace perfbench
