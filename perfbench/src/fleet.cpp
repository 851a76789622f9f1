// fleet-mix: open loop in virtual time. A serve::FleetServer over the
// testbed ladders of alexnet, vgg16 and resnet-mini (2 replicas each, the
// CLI's steady and bursty tenants per model) serves seeded traces at a fixed
// ladder of offered loads. Arrivals follow the precomputed schedule whatever
// the completions do; worker threads grind each request's functional
// pipeline work.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "toolflow/ladder.h"

namespace perfbench {

using namespace hetacc;

namespace {

constexpr int kSetupReps = 15;  ///< at least; see setup_reps()
constexpr int kReplicas = 2;
constexpr std::size_t kBatchCap = 8;
/// Tenant deadline, in home-rung service times (the CLI's choice).
constexpr long long kDeadlineServices = 12;
/// Offered load as a multiple of each model's modeled capacity: the
/// saturated throughput of its replicas on the home rung, replicas x
/// kBatchCap / svc(kBatchCap). A full batch serves 1.44x the one-at-a-time
/// rate (batch_setup_frac 0.35), so replicas / service cycles would leave
/// 1.25x under capacity; taken at the full batch, 1.25x and 1.5x are over.
constexpr double kLoads[] = {0.5, 0.75, 1.0, 1.25, 1.5};
constexpr std::size_t kNominal = 2;  ///< index of the 1.0x load
/// Distinct seeded trace sets served at each load. The 1.0x point carries
/// the latency percentiles and the host-time samples, so it gets several.
constexpr std::size_t kSets[] = {1, 1, 8, 1, 1};
/// The bursty tenant's square wave, per load: kPeriods bursts of kPerPhase
/// requests, each followed by a lull of kPerPhase. Above capacity a lull no
/// longer drains what the burst queued, so backlog stacks burst over burst;
/// the overloaded points get enough periods to cross the regime ladder's
/// deadline-miss watermark.
constexpr std::size_t kPeriods[] = {1, 1, 1, 5, 4};
constexpr std::size_t kPerPhase = 5;

struct ModelSpec {
  const char* name;
  hetacc::nn::Network (*make)();
};
const ModelSpec kModels[] = {
    {"alexnet", &nn::alexnet},
    {"vgg16", &nn::vgg16},
    {"resnet-mini", &nn::resnet_mini},
};

struct Fleet {
  std::vector<serve::FleetModel> models;
  std::vector<serve::TenantConfig> tenants;
  serve::FleetConfig cfg;
  std::unique_ptr<serve::FleetServer> server;
};

long long home_cycles(const serve::FleetModel& m) {
  return m.ladder.rungs[m.ladder.home].service_cycles;
}

/// Modeled capacity of a model in requests per cycle (see kLoads).
double capacity(const Fleet& f, std::size_t m) {
  const long long svc = home_cycles(f.models[m]);
  const auto setup = static_cast<long long>(static_cast<double>(svc) *
                                            f.cfg.batch_setup_frac);
  const long long batch =
      setup + static_cast<long long>(kBatchCap) * (svc - setup);
  return static_cast<double>(kReplicas * kBatchCap) /
         static_cast<double>(batch);
}

Fleet setup_fleet(const Args& a) {
  Span s("setup");
  Fleet f;
  for (const ModelSpec& spec : kModels) {
    // build_testbed_ladder takes its ladder from a process-wide memo, so the
    // ladder DSE is re-run explicitly: every repetition prices the set-up a
    // fresh process pays.
    {
      Span t(std::string("toolflow.build_serving_ladder.") + spec.name);
      (void)toolflow::build_serving_ladder(spec.make(), fpga::zc706());
    }
    toolflow::TestbedLadder tb = [&] {
      Span t("toolflow.build_testbed_ladder");
      return toolflow::build_testbed_ladder(spec.make(), fpga::zc706());
    }();
    f.models.push_back({spec.name, std::move(tb.net), std::move(tb.ws),
                        std::move(tb.ladder), kReplicas});
  }
  // The CLI's tenant pair per model: a steady stream (weight 2) and a
  // bursty neighbour (weight 1).
  for (std::size_t m = 0; m < f.models.size(); ++m) {
    const long long svc = home_cycles(f.models[m]);
    serve::TenantConfig steady;
    steady.name = f.models[m].name + "/steady";
    steady.model = m;
    steady.weight = 2;
    steady.queue_capacity = 32;
    steady.deadline_cycles = kDeadlineServices * svc;
    steady.batch_cap = kBatchCap;
    steady.batch_age_cycles = svc;
    serve::TenantConfig bursty = steady;
    bursty.name = f.models[m].name + "/bursty";
    bursty.weight = 1;
    f.tenants.push_back(std::move(steady));
    f.tenants.push_back(std::move(bursty));
  }
  // The dispatcher is a thread of its own, so nproc - 1 workers keep the
  // process at nproc threads; nproc workers oversubscribe the cores.
  f.cfg.threads = std::max(1, a.threads - 1);
  {
    Span c("serve.FleetServer.ctor");
    f.server = std::make_unique<serve::FleetServer>(f.models, f.tenants, f.cfg);
  }
  return f;
}

/// Traces for one load point, in units of g = 1 / (load x capacity), the
/// mean gap of the whole offered stream. The steady tenant offers 2/3 of the
/// load as a jittered uniform stream (mean gap 1.5 g); the bursty tenant
/// offers 1/3 as a square wave, bursts at 0.5 g and lulls at 5.5 g. Both
/// span the same time.
std::vector<serve::ArrivalTrace> make_traces(const Fleet& f, std::size_t li,
                                             std::uint64_t seed) {
  std::vector<serve::ArrivalTrace> traces;
  for (std::size_t m = 0; m < f.models.size(); ++m) {
    const double g = 1.0 / (kLoads[li] * capacity(f, m));
    auto cycles = [&](double k) {
      return std::max<long long>(std::llround(k * g), 1);
    };
    const std::uint64_t s = mix_seed(seed, li * 16 + m);
    traces.push_back(serve::ArrivalTrace::synthetic(
        4 * kPeriods[li] * kPerPhase, cycles(1.5), s));
    traces.push_back(serve::ArrivalTrace::oscillating(
        kPeriods[li], kPerPhase, cycles(0.5), cycles(5.5), s ^ 1));
  }
  return traces;
}

/// Virtual-time outcome of one load point, pooled over trace sets.
struct LoadResult {
  std::vector<std::vector<double>> lat;  ///< per model, every completion
  long long submitted = 0, completed = 0, in_deadline = 0, misses = 0,
            degraded = 0, shed = 0, rejected = 0, failed = 0,
            transitions = 0, queue_peak = 0;

  /// Folds in one run; latencies come from the exact histograms through
  /// nearest-rank order statistics.
  void add(const Fleet& f, const serve::FleetStats& st) {
    lat.resize(f.models.size());
    for (std::size_t t = 0; t < st.tenants.size(); ++t) {
      const serve::TenantStats& ts = st.tenants[t];
      const long long n = ts.latency.count();
      for (long long k = 1; k <= n; ++k) {
        lat[f.tenants[t].model].push_back(static_cast<double>(
            ts.latency.percentile(100.0 * (static_cast<double>(k) - 0.5) /
                                  static_cast<double>(n))));
      }
      submitted += ts.submitted;
      completed += ts.completed;
      in_deadline += ts.completed - ts.deadline_misses;
      misses += ts.deadline_misses;
      degraded += ts.completed_degraded;
      shed += ts.shed_deadline;
      rejected += ts.rejected_queue_full;
      failed += ts.failed;
      queue_peak = std::max(queue_peak, ts.queue_peak);
    }
    for (const serve::ModelStats& m : st.models) {
      transitions += m.rung_transitions;
    }
  }
  [[nodiscard]] double goodput() const {
    return static_cast<double>(in_deadline) / static_cast<double>(submitted);
  }
  /// Every model's p99 within its tenants' deadline (both tenants of a
  /// model share it).
  [[nodiscard]] bool slo_met(const Fleet& f) const {
    for (std::size_t m = 0; m < lat.size(); ++m) {
      if (percentile(lat[m], 99.0) >
          static_cast<double>(kDeadlineServices * home_cycles(f.models[m]))) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

void run_fleet_mix(const Args& a, Report& r) {
  tracer().set_enabled(a.trace);
  // Warm the ladder memo first so the timed repetitions do equal work.
  for (const ModelSpec& spec : kModels) {
    (void)toolflow::cached_serving_ladder(spec.make(), fpga::zc706());
  }
  // Set-up repetitions [from, to). Set-up is single-threaded, so repetition
  // i is pinned to CPU i; the server starts its worker threads only in
  // run(), after the unpin.
  Fleet f;
  std::vector<double> setup_s;
  auto timed_setup = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      f = Fleet{};  // one fleet alive at a time, so peak_rss_mb sees one
      pin_cpu(i);
      const auto t0 = Clock::now();
      f = setup_fleet(a);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    pin_cpu(-1);
  };
  const int reps = setup_reps(kSetupReps);
  timed_setup(0, reps / 2);
  // One point per (load, trace set); its first run fixes its FleetStats.
  struct Point {
    std::size_t load = 0;
    std::vector<serve::ArrivalTrace> traces;
    serve::FleetStats stats;
  };
  std::vector<Point> points;
  std::vector<std::size_t> nominal;  ///< indices of the 1.0x points
  for (std::size_t li = 0; li < std::size(kLoads); ++li) {
    for (std::size_t k = 0; k < kSets[li]; ++k) {
      if (li == kNominal) nominal.push_back(points.size());
      points.push_back(
          {li, make_traces(f, li, mix_seed(a.seed, 1000 + li * 16 + k)), {}});
    }
  }

  long long op = 0;
  long long submitted = 0, failed = 0;
  long long wrong = 0;  // trace runs whose results failed a gate
  auto check = [&](bool ok, const std::string& what) {
    r.gate(ok, what);
    wrong += ok ? 0 : 1;
  };
  /// Serves point i once; returns host ms per request. A replay must
  /// reproduce the point's FleetStats and response_hash.
  auto serve_point = [&](std::size_t i, bool replay) {
    Point& pt = points[i];
    const auto o0 = Clock::now();
    serve::FleetStats st = [&] {
      Span s("serve.FleetServer.run", op++);
      return f.server->run(pt.traces);
    }();
    const double ms = ms_since(o0);
    LoadResult one;
    one.add(f, st);
    submitted += one.submitted;
    failed += one.failed;
    const std::string at = "load " + std::to_string(kLoads[pt.load]) +
                           " set " + std::to_string(i);
    check(st.accounted(), "FleetStats::accounted() at " + at);
    if (replay) {
      check(st == pt.stats && st.response_hash == pt.stats.response_hash,
            "replay changed FleetStats at " + at);
    } else {
      pt.stats = std::move(st);
    }
    return ms / static_cast<double>(one.submitted);
  };

  // Main phase. The ladder pass serves every point once and fixes the
  // virtual-time results; the rest of the time replays the 1.0x points
  // round-robin. Host time is taken over the 1.0x runs only: they carry
  // equal numbers of requests, so each is one equal-sized sample.
  tracer().set_enabled(false);
  const auto t0 = Clock::now();
  std::vector<double> untraced_ms, traced_ms;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double ms = serve_point(i, false);
    if (points[i].load == kNominal) untraced_ms.push_back(ms);
  }
  auto replays = [&](double until_s, std::size_t min_runs, bool traced,
                     std::vector<double>& out) {
    tracer().set_enabled(traced);
    for (std::size_t k = 0; k < min_runs || ms_since(t0) < until_s * 1e3;
         ++k) {
      out.push_back(serve_point(nominal[k % nominal.size()], true));
    }
  };
  if (a.trace) {
    // Traced run: one untraced replay, then traced replays of every 1.0x
    // point for half the time budget.
    replays(0.0, 1, false, untraced_ms);
    replays(ms_since(t0) / 1e3 + a.seconds / 2, nominal.size(), true,
            traced_ms);
  } else {
    replays(a.seconds, 1, false, untraced_ms);
  }
  tracer().set_enabled(a.trace);

  if (a.corrupt) points[nominal[0]].stats.response_hash ^= 1;
  {
    // One more run of a nominal trace must reproduce its recorded digest.
    const serve::FleetStats again = f.server->run(points[nominal[0]].traces);
    check(again.response_hash == points[nominal[0]].stats.response_hash,
          "response_hash of the 1.0x trace is not reproducible");
  }
  // The rest of the set-up repetitions; the last one's fleet, identical to
  // the first's, serves the traced per-layer calls below.
  timed_setup(reps / 2, reps);
  r.set("setup_s", median(setup_s), "s");

  // End-to-end metrics: host throughput, virtual latency at 1.0x, goodput.
  r.attempted += submitted;
  r.failed += failed + wrong;
  const auto rate = [](const std::vector<double>& ms) {
    return 1e3 / median(ms);
  };
  CpuTimes run_ms;  // the fleet's threads run unpinned: one group
  for (double ms : untraced_ms) run_ms.add(0, ms);
  report_host_time(r, rate(untraced_ms), run_ms);
  std::vector<LoadResult> loads(std::size(kLoads));
  for (const Point& pt : points) loads[pt.load].add(f, pt.stats);
  // Latency percentiles at 1.0x: per model (the models' service times span
  // three orders of magnitude), then the geometric mean over models.
  std::vector<double> p50, p99;
  for (const auto& lat : loads[kNominal].lat) {
    p50.push_back(percentile(lat, 50.0));
    p99.push_back(percentile(lat, 99.0));
  }
  r.set("lat_cyc_p50", geomean(p50), "cycles");
  r.set("lat_cyc_p99", geomean(p99), "cycles");
  r.set("goodput_frac", loads[kNominal].goodput(), "frac");
  r.set("fail_frac", static_cast<double>(failed + wrong) / submitted, "frac");
  double slo_load = 0.0;
  long long offered = 0, shed = 0;
  for (std::size_t li = 0; li < std::size(kLoads); ++li) {
    const LoadResult& l = loads[li];
    const bool met = l.slo_met(f);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "load %.2fx: %lld submitted, %lld completed (%lld degraded, "
                  "%lld late), %lld shed, %lld rejected, %lld rung moves, "
                  "queue peak %lld, goodput %.4f, p99 within deadline: %s",
                  kLoads[li], l.submitted, l.completed, l.degraded, l.misses,
                  l.shed, l.rejected, l.transitions, l.queue_peak,
                  l.goodput(), met ? "yes" : "no");
    r.note(buf);
    if (met && l.goodput() >= 0.99) slo_load = kLoads[li];
    offered += l.submitted;
    shed += l.shed + l.rejected;
  }
  r.set("serve.slo_load", slo_load, "x");
  r.set("serve.shed_frac",
        static_cast<double>(shed) / static_cast<double>(offered), "frac");

  // Modeled FPGA time of each model's deployed (home-rung) full strategy.
  {
    std::vector<double> cyc;
    double worst = 0.0;
    long long groups = 0, within = 0;
    for (const ModelSpec& spec : kModels) {
      const auto& plan =
          toolflow::cached_serving_ladder(spec.make(), fpga::zc706());
      const ScheduleCheck c =
          check_schedule(plan.accel_net, plan.rungs[plan.home].strategy,
                         fpga::zc706());
      cyc.push_back(static_cast<double>(c.schedule_cycles));
      worst = std::max(worst, c.worst_err_pct);
      groups += c.groups;
      within += c.groups_within_10pct;
    }
    r.set("fpga_cycles", geomean(cyc), "cycles");
    r.set("model_err_pct", worst, "%");
    r.set("cost.groups_within_10pct", static_cast<double>(within) / groups,
          "frac");
  }

  if (!a.trace) return;

  // Per-layer metrics of the serving stack.
  r.set("trace_overhead_pct",
        100.0 * (rate(untraced_ms) / rate(traced_ms) - 1.0), "%");
  for (const ModelSpec& spec : kModels) {
    span_metric(r, std::string("toolflow.build_serving_ladder.") + spec.name,
                std::string("toolflow.ladder_ms.") + spec.name);
  }
  span_metric(r, "toolflow.build_testbed_ladder", "toolflow.testbed_ms");
  span_metric(r, "serve.FleetServer.ctor", "serve.ctor_ms");
  span_metric(r, "serve.FleetServer.run", "serve.run_ms");

  // Standalone home-rung testbed request per model.
  double busy_ms = 0.0;
  for (std::size_t m = 0; m < f.models.size(); ++m) {
    const serve::FleetModel& fm = f.models[m];
    arch::FusionPipeline pipe(fm.net, fm.ws,
                              fm.ladder.rungs[fm.ladder.home].choices);
    nn::Tensor in(fm.net[0].out);
    nn::fill_deterministic(in, mix_seed(a.seed, 99 + m));
    const std::string span = "serve.request." + fm.name;
    for (int k = 0; k < 5; ++k) {
      Span s(span);
      (void)pipe.run(in);
    }
    span_metric(r, span, "serve.request_ms." + fm.name);
    const double req_ms = r.metrics.at("serve.request_ms." + fm.name).value;
    long long done = 0, batches = 0, batched = 0;
    for (std::size_t i : nominal) {
      const serve::FleetStats& st = points[i].stats;
      for (std::size_t t = 0; t < f.tenants.size(); ++t) {
        if (f.tenants[t].model == m) done += st.tenants[t].completed;
      }
      const serve::ModelStats& ms = st.models[m];
      batches += ms.batches;
      for (std::size_t b = 0; b < ms.batch_size_counts.size(); ++b) {
        batched += static_cast<long long>(b) * ms.batch_size_counts[b];
      }
    }
    busy_ms += static_cast<double>(done) * req_ms;
    r.set("serve.batch_mean." + fm.name,
          static_cast<double>(batched) / static_cast<double>(batches),
          "requests");
  }
  // Worker utilisation at 1.0x: computed from the standalone request cost
  // over the 1.0x runs' host time, not observed inside the workers.
  const double nominal_ms = median(untraced_ms) *
                            static_cast<double>(loads[kNominal].submitted);
  r.set("serve.worker_util", busy_ms / (nominal_ms * f.cfg.threads), "frac");

  long long queue_peak = 0, transitions = 0, misses = 0, degraded = 0,
            completed = 0, hits = 0, lookups = 0, resident = 0;
  for (const LoadResult& l : loads) {
    queue_peak = std::max(queue_peak, l.queue_peak);
    transitions += l.transitions;
    misses += l.misses;
    degraded += l.degraded;
    completed += l.completed;
  }
  for (const Point& pt : points) {
    hits += pt.stats.cache.hits;
    lookups += pt.stats.cache.hits + pt.stats.cache.misses;
    resident = std::max(resident, pt.stats.cache.peak_resident_bytes);
  }
  tracer().count("serve.completed", static_cast<double>(completed));
  r.set("serve.queue_peak", static_cast<double>(queue_peak), "requests");
  r.set("serve.degraded_frac", static_cast<double>(degraded) / completed,
        "frac");
  r.set("serve.rung_transitions", static_cast<double>(transitions), "count");
  r.set("serve.deadline_misses", static_cast<double>(misses), "count");
  r.set("serve.cache_hit_frac",
        lookups ? static_cast<double>(hits) / lookups : 0.0, "frac");
  r.set("serve.resident_bytes", static_cast<double>(resident), "bytes");
}

}  // namespace perfbench
