// dse-sweep: closed loop of sequential DSE solves. Seven zoo models x three
// devices x a geometric transfer-budget grid from each model's minimal
// transfer up to unfused; each solve is core::optimize followed by
// arch::simulate_schedule on every chosen group. Most of these groups are
// never deployed by the streaming workloads, so the sweep doubles as a
// held-out check of the analytic latency model.

#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/dp_optimizer.h"
#include "nn/model_zoo.h"

namespace perfbench {

using namespace hetacc;

namespace {

constexpr int kSetupReps = 5;  ///< at least; see setup_reps()
constexpr int kBudgets = 8;
/// Interior grid points move by up to +-0.5% with the workload seed: enough
/// to vary the solves' inputs, small enough that the chosen strategies (and
/// so the modeled metrics) rarely change between seeds.
constexpr double kJitter = 0.01;

struct Point {
  std::size_t model = 0;
  std::size_t device = 0;
  long long budget = 0;
};

struct Sweep {
  std::vector<std::string> names;
  std::vector<nn::Network> nets;  ///< accelerated portions
  std::vector<fpga::Device> devices;
  std::vector<fpga::EngineModel> engines;
  std::vector<Point> points;
};

Sweep setup_sweep(const Args& a) {
  Span s("setup");
  Sweep w;
  const std::pair<const char*, nn::Network (*)()> zoo[] = {
      {"alexnet", &nn::alexnet},       {"vgg-e", &nn::vgg_e},
      {"vgg16", &nn::vgg16},           {"vgg-e-head", &nn::vgg_e_head},
      {"nin", &nn::nin},               {"inception-mini", &nn::inception_mini},
      {"resnet-mini", &nn::resnet_mini}};
  for (const auto& [name, make] : zoo) {
    w.names.emplace_back(name);
    w.nets.push_back(make().accelerated_portion());
  }
  w.devices = {fpga::zc706(), fpga::vc707(), fpga::vx690t()};
  for (const auto& d : w.devices) w.engines.emplace_back(d);

  const core::OptimizerOptions oo;
  for (std::size_t m = 0; m < w.nets.size(); ++m) {
    for (std::size_t d = 0; d < w.devices.size(); ++d) {
      const double lo = static_cast<double>(minimal_transfer_budget(
          w.nets[m], w.engines[d], oo.transfer_unit_bytes));
      const double hi = std::max(
          lo, static_cast<double>(
                  w.nets[m].unfused_feature_transfer_bytes(
                      w.devices[d].data_bytes) +
                  static_cast<long long>(w.nets[m].size()) *
                      oo.transfer_unit_bytes));
      for (int k = 0; k < kBudgets; ++k) {
        double b = lo * std::pow(hi / lo, static_cast<double>(k) / (kBudgets - 1));
        if (k > 0 && k < kBudgets - 1) {
          const double u =
              mix_seed(a.seed, (m * 16 + d) * 16 + k) / 4294967296.0;
          b *= 1.0 + kJitter * (u - 0.5);
        }
        w.points.push_back({m, d, std::llround(b)});
      }
    }
  }
  return w;
}

}  // namespace

void run_dse_sweep(const Args& a, Report& r) {
  tracer().set_enabled(a.trace);
  // Set-up repetitions [from, to), repetition i pinned to CPU i.
  Sweep w;
  std::vector<double> setup_s;
  auto timed_setup = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      w = Sweep{};  // one sweep alive at a time, for peak_rss_mb
      pin_cpu(i);
      const auto t0 = Clock::now();
      w = setup_sweep(a);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    pin_cpu(-1);
  };
  const int reps = setup_reps(kSetupReps);
  timed_setup(0, reps / 2);

  // First pass over the grid fixes the modeled results; later passes repeat
  // the same solves and must reproduce each strategy's latency.
  const std::size_t np = w.points.size();
  std::vector<long long> analytic(np, -1);
  std::vector<double> sched;
  double worst = 0.0;
  long long groups = 0, within = 0, nodes = 0, ranges = 0, bad = 0;
  auto solve = [&](long long op) {
    const std::size_t i = static_cast<std::size_t>(op) % np;
    const Point& p = w.points[i];
    core::OptimizerOptions oo;
    oo.transfer_budget_bytes = p.budget;
    core::OptimizeResult res;
    bool ok = true;
    try {
      {
        Span s("core.optimize", op);
        res = core::optimize(w.nets[p.model], w.engines[p.device], oo);
      }
      ok = res.feasible;
      if (ok) {
        const ScheduleCheck c = check_schedule(
            w.nets[p.model], res.strategy, w.devices[p.device], op);
        if (analytic[i] < 0) {
          analytic[i] = res.strategy.latency_cycles();
          sched.push_back(static_cast<double>(c.schedule_cycles));
          worst = std::max(worst, c.worst_err_pct);
          groups += c.groups;
          within += c.groups_within_10pct;
          nodes += res.bnb_nodes_visited;
          ranges += res.fusion_ranges_evaluated;
          tracer().count("core.bnb_nodes",
                         static_cast<double>(res.bnb_nodes_visited));
        } else {
          ok = analytic[i] == res.strategy.latency_cycles();
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      r.note(std::string("solve threw: ") + e.what());
    }
    if (!ok) {
      ++bad;
      r.gate(false, w.names[p.model] + " on " + w.devices[p.device].name +
                        " at budget " + std::to_string(p.budget) +
                        ": infeasible, thrown or not reproducible");
    }
  };

  // Whole passes only, so every point is solved equally often. Solve k is
  // pinned to CPU k, so the points spread evenly over the CPUs. A point's
  // solve time is the median over its repetitions; the throughput is the
  // one those medians imply.
  struct Phase {
    long long ops = 0;
    std::vector<std::vector<double>> point_ms;  ///< [point][repetition]
    std::vector<long long> point_cpu;           ///< CPU of its first solve
    [[nodiscard]] CpuTimes op_ms() const {
      CpuTimes t;
      for (std::size_t i = 0; i < point_ms.size(); ++i) {
        t.add(point_cpu[i], median(point_ms[i]));
      }
      return t;
    }
    [[nodiscard]] double rate() const {
      double sum = 0.0;
      for (double ms : op_ms().all()) sum += ms;
      return static_cast<double>(point_ms.size()) * 1e3 / sum;
    }
  };
  long long next = 0;
  auto phase = [&](double seconds, bool traced) {
    tracer().set_enabled(traced);
    Phase ph;
    ph.point_ms.resize(np);
    ph.point_cpu.resize(np);
    const auto t0 = Clock::now();
    double pass_ms = 0.0;
    while (ph.ops == 0 || another_pass(t0, pass_ms, seconds)) {
      const auto p0 = Clock::now();
      for (std::size_t k = 0; k < np; ++k) {
        if (ph.point_ms[k].empty()) ph.point_cpu[k] = next;
        pin_cpu(next);
        const auto o0 = Clock::now();
        solve(next++);
        ph.point_ms[k].push_back(ms_since(o0));
        ++ph.ops;
      }
      pass_ms = ms_since(p0);
    }
    pin_cpu(-1);
    return ph;
  };
  const Phase untraced = phase(a.trace ? a.seconds / 2 : a.seconds, false);
  Phase traced;
  if (a.trace) traced = phase(a.seconds / 2, true);
  tracer().set_enabled(a.trace);
  if (a.corrupt) {
    // Perturb the recorded result of point 0; re-solving it must be caught.
    analytic[0] += 1;
    solve(0);
  }
  timed_setup(reps / 2, reps);
  r.set("setup_s", median(setup_s), "s");

  r.attempted += untraced.ops + traced.ops;
  r.failed += bad;
  report_host_time(r, untraced.rate(), untraced.op_ms());
  r.set("fpga_cycles", geomean(sched), "cycles");
  r.set("lat_cyc_p50", percentile(sched, 50.0), "cycles");
  r.set("lat_cyc_p99", percentile(sched, 99.0), "cycles");
  r.set("model_err_pct", worst, "%");
  r.set("goodput_frac",
        static_cast<double>(untraced.ops - bad) / untraced.ops, "frac");
  r.set("fail_frac", static_cast<double>(bad) / untraced.ops, "frac");
  r.set("cost.groups_within_10pct", static_cast<double>(within) / groups,
        "frac");
  r.note(std::to_string(np) + " sweep points, " + std::to_string(groups) +
         " chosen groups, " + std::to_string(groups - within) +
         " outside +-10% of simulate_schedule");
  if (!a.trace) return;

  r.set("trace_overhead_pct",
        100.0 * (untraced.rate() / traced.rate() - 1.0),
        "%");
  r.set("core.bnb_nodes", static_cast<double>(nodes), "count");
  r.set("core.fusion_ranges", static_cast<double>(ranges), "count");
  span_metric(r, "core.optimize", "core.optimize_ms");
  span_metric(r, "core.FusionTable", "core.fusion_table_ms");
  span_metric(r, "arch.simulate_schedule", "arch.schedule_ms");

  // Fusion-table thread scaling on vgg16: time at 1 thread / at nproc.
  const nn::Network vgg = nn::vgg16().accelerated_portion();
  const fpga::EngineModel model(fpga::zc706());
  for (int k = 0; k < 3; ++k) {
    {
      Span s("core.FusionTable.1thread");
      (void)core::FusionTable(vgg, model, core::BnbOptions{}, 1);
    }
    {
      Span s("core.FusionTable.nthread");
      (void)core::FusionTable(vgg, model, core::BnbOptions{}, a.threads);
    }
  }
  const auto self = tracer().self_ms();
  r.set("core.table_thread_scaling",
        median(self.at("core.FusionTable.1thread")) /
            median(self.at("core.FusionTable.nthread")),
        "ratio");
}

}  // namespace perfbench
