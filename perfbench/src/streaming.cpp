// The two streaming workloads: seeded images through a deployed
// arch::FusionPipeline, checked against the float reference executor.
//
//  alexnet-stream   closed loop, one client, one kernel thread: the paper's
//                   heterogeneous AlexNet design (DSE at the minimal
//                   transfer budget), float datapath, one image per run().
//  vgg-head-batch   closed loop, one client: the VGG-E head at the
//                   toolflow's relaxed budget on the calibrated 16-bit
//                   datapath, nproc images per run_batch() on nproc threads.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "bench.h"
#include "caffe/importer.h"
#include "core/dp_optimizer.h"
#include "kernels/parallel.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "quant/calibration.h"
#include "toolflow/toolflow.h"

namespace perfbench {

using namespace hetacc;

namespace {

constexpr int kSetupReps = 3;  ///< at least; see setup_reps()
constexpr std::uint32_t kWeightSeed = 42;
/// Correctness bounds on L-inf error as a % of the reference output range.
constexpr double kFloatTolPct = 0.1;
constexpr double kFixedTolPct = 2.0;

struct Deployment {
  std::string tag;  ///< metric-name prefix: "alexnet" or "vgg"
  fpga::Device dev = fpga::zc706();
  nn::Network net;  ///< the accelerated portion the pipeline runs
  core::Strategy strategy;
  long long budget = 0;
  nn::WeightStore ws;
  std::vector<arch::LayerChoice> choices;
  std::unique_ptr<arch::FusionPipeline> pipe;
  bool fixed = false;
};

nn::Tensor image(const nn::Network& net, std::uint64_t seed,
                 std::uint64_t idx) {
  nn::Tensor t(net[0].out);
  nn::fill_deterministic(t, mix_seed(seed, idx));
  return t;
}

void build_pipeline(Deployment& d) {
  Span s("arch.FusionPipeline.ctor");
  d.pipe = std::make_unique<arch::FusionPipeline>(d.net, d.ws, d.choices);
}

Deployment setup_alexnet(const Args&) {
  Span s("setup");
  Deployment d;
  d.tag = "alexnet";
  const nn::Network full = [] {
    Span c("caffe.import_prototxt");
    return caffe::import_prototxt(caffe::alexnet_prototxt());
  }();
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.threads = 1;
  d.budget = minimal_transfer_budget(full.accelerated_portion(),
                                     fpga::EngineModel(d.dev),
                                     opt.optimizer.transfer_unit_bytes);
  opt.transfer_budget_bytes = d.budget;
  toolflow::ToolflowResult res = [&] {
    Span t("toolflow.run_toolflow");
    return toolflow::run_toolflow(full, d.dev, opt);
  }();
  d.net = std::move(res.accel_net);
  d.strategy = std::move(res.optimization.strategy);
  d.ws = nn::WeightStore::deterministic(d.net, kWeightSeed);
  d.choices = choices_of(d.strategy);
  build_pipeline(d);
  return d;
}

Deployment setup_vgg(const Args& a) {
  Span s("setup");
  Deployment d;
  d.tag = "vgg";
  d.fixed = true;
  const nn::Network full = nn::vgg_e_head();
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.threads = 1;
  // Relaxed budget: the unfused transfer plus one discretisation unit per
  // layer, which admits every partition.
  const nn::Network accel = full.accelerated_portion();
  d.budget = accel.unfused_feature_transfer_bytes(d.dev.data_bytes) +
             static_cast<long long>(accel.size()) *
                 opt.optimizer.transfer_unit_bytes;
  opt.transfer_budget_bytes = d.budget;
  toolflow::ToolflowResult res = [&] {
    Span t("toolflow.run_toolflow");
    return toolflow::run_toolflow(full, d.dev, opt);
  }();
  d.net = std::move(res.accel_net);
  d.strategy = std::move(res.optimization.strategy);
  d.ws = nn::WeightStore::deterministic(d.net, kWeightSeed);
  const std::vector<nn::Tensor> samples = {image(d.net, a.seed, 1u << 30),
                                           image(d.net, a.seed, 1u << 31)};
  const quant::Calibration cal = [&] {
    Span q("quant.calibrate");
    return quant::calibrate(d.net, d.ws, samples);
  }();
  d.choices = choices_of(d.strategy);
  const auto modes = cal.modes();
  for (std::size_t i = 0; i < d.choices.size(); ++i) {
    d.choices[i].mode = modes[i];
  }
  build_pipeline(d);
  return d;
}

/// Runs set-up repetitions [from, to) of setup_reps(kSetupReps), repetition
/// i pinned to CPU i, appending each wall time to `s`. Returns the last
/// deployment; with from == 0 it is the one measured.
template <class SetupFn>
Deployment timed_setup(const Args& a, int from, int to, std::vector<double>& s,
                       SetupFn fn) {
  Deployment d;
  for (int i = from; i < to; ++i) {
    d = Deployment{};  // one deployment alive at a time, for peak_rss_mb
    pin_cpu(i);
    const auto t0 = Clock::now();
    d = fn(a);
    s.push_back(ms_since(t0) / 1e3);
  }
  pin_cpu(-1);
  return d;
}

/// One timed main phase: calls until `seconds` elapse. Every call does the
/// same work, so the phase's rate is taken at the median call time.
struct Phase {
  long long images = 0;
  long long per_op = 1;  ///< images per run() / run_batch() call
  CpuTimes op_ms;        ///< host ms per call
  [[nodiscard]] double rate() const {
    return static_cast<double>(per_op) * 1e3 / op_ms.median_ms();
  }
};

/// Outputs kept for the correctness gates: (image index, output).
using Kept = std::vector<std::pair<std::uint64_t, nn::Tensor>>;
/// Every run reaches these images, so out_err_pct is taken over the kept
/// ones among them and repeats exactly; later images (the last one) are
/// gated but not measured.
constexpr std::uint64_t kMeasuredImages = 16;

/// Modeled FPGA time of the deployed strategy; every image in these closed
/// loops sees the same modeled latency, so the latency percentiles equal it.
ScheduleCheck report_modeled(const Deployment& d, Report& r) {
  const ScheduleCheck c = check_schedule(d.net, d.strategy, d.dev);
  r.set("fpga_cycles", static_cast<double>(c.schedule_cycles), "cycles");
  r.set("lat_cyc_p50", static_cast<double>(c.schedule_cycles), "cycles");
  r.set("lat_cyc_p99", static_cast<double>(c.schedule_cycles), "cycles");
  r.set("model_err_pct", c.worst_err_pct, "%");
  r.set("cost.groups_within_10pct",
        static_cast<double>(c.groups_within_10pct) / c.groups, "frac");
  for (std::size_t g = 0; g < c.ratios.size(); ++g) {
    r.set("cost.group_ratio." + d.tag + ".g" + std::to_string(g), c.ratios[g],
          "ratio");
  }
  return c;
}

/// Gates the kept outputs against nn::run_network; returns how many failed.
long long check_outputs(const Args& a, const Deployment& d, Kept& kept,
                        Report& r) {
  if (a.corrupt && !kept.empty()) kept.back().second.vec()[0] += 1e3f;
  const double tol = d.fixed ? kFixedTolPct : kFloatTolPct;
  double worst = 0.0;
  long long bad = 0;
  for (const auto& [idx, out] : kept) {
    const nn::Tensor ref = [&] {
      Span s("nn.run_network", static_cast<long long>(idx));
      return nn::run_network(d.net, d.ws, image(d.net, a.seed, idx));
    }();
    const double e = linf_pct(out, ref);
    if (idx < kMeasuredImages) worst = std::max(worst, e);
    if (!(e <= tol)) {
      ++bad;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "image %llu: L-inf %.4g%% of range exceeds %.3g%%",
                    static_cast<unsigned long long>(idx), e, tol);
      r.gate(false, buf);
    }
  }
  r.set("out_err_pct", worst, "%");
  r.note("out_err_pct bound " + std::to_string(tol) + "%, " +
         std::to_string(kept.size()) + " image(s) checked");
  return bad;
}

void finish_e2e(const Phase& p, long long bad, Report& r) {
  r.attempted += p.images;
  r.failed += bad;
  report_host_time(r, p.rate(), p.op_ms);
  r.set("goodput_frac",
        static_cast<double>(p.images - bad) / static_cast<double>(p.images),
        "frac");
  r.set("fail_frac", static_cast<double>(bad) / p.images, "frac");
}

// ------------------------------------------------------ traced extras

nn::Tensor whole_tensor_conv(const nn::Layer& l, const nn::ConvWeights& w,
                             const arch::LayerChoice& ch,
                             const nn::Tensor& in) {
  const auto& cp = l.conv();
  const bool wino = ch.algo == fpga::ConvAlgo::kWinograd;
  if (ch.mode.fixed()) {
    if (wino) {
      return algo::winograd_conv_fixed(algo::winograd(ch.wino_m, cp.kernel),
                                       in, w.filters, w.bias, cp.pad,
                                       cp.fused_relu, ch.mode.in_frac,
                                       ch.mode.out_frac);
    }
    float wmax = 0.0f;
    for (std::int64_t k = 0; k < w.filters.size(); ++k) {
      wmax = std::max(wmax, std::abs(w.filters.data()[k]));
    }
    const int wfrac =
        15 - std::max(0, static_cast<int>(std::ceil(std::log2(wmax + 1e-12f))));
    return algo::conv_direct_fixed(in, w.filters, w.bias, cp.stride, cp.pad,
                                   cp.fused_relu, ch.mode.in_frac, wfrac,
                                   ch.mode.out_frac);
  }
  if (wino) {
    return algo::winograd_conv(algo::winograd(ch.wino_m, cp.kernel), in,
                               w.filters, w.bias, cp.pad, cp.fused_relu);
  }
  return algo::conv_im2col(in, w.filters, w.bias, cp.stride, cp.pad,
                           cp.fused_relu);
}

/// Per-network-layer profile: each layer alone as a one-layer pipeline on
/// its true (reference) input with the deployed algorithm and datapath,
/// next to the whole-tensor kernel for the same choice and the modeled
/// cycles. Writes the table and publishes the per-layer metrics.
void profile_layers(const Args& a, const Deployment& d,
                    const ScheduleCheck& sc, Report& r) {
  constexpr int kReps = 3;
  const std::vector<nn::Tensor> acts = [&] {
    Span s("nn.run_network_all");
    return nn::run_network_all(d.net, d.ws, image(d.net, a.seed, 0));
  }();
  const double run_ms = r.metrics.at("arch.run_ms").value;

  struct Row {
    std::string layer, algo, datapath;
    long long analytic = 0, sched = 0;
    double host_ms = 0.0, kernel_ms = -1.0;
  };
  std::vector<Row> rows;
  double sum_ms = 0.0;
  for (std::size_t gi = 0; gi < d.strategy.groups.size(); ++gi) {
    const auto& g = d.strategy.groups[gi];
    for (std::size_t i = g.first; i <= g.last; ++i) {
      const nn::Layer& l = d.net[i];
      const auto& ipl = g.impls[i - g.first];
      const arch::LayerChoice& ch = d.choices[i - 1];
      Row row;
      row.layer = l.name;
      row.algo = l.kind == nn::LayerKind::kConv
                     ? std::string(fpga::to_string(ch.algo))
                     : "-";
      row.datapath = ch.mode.fixed() ? "fixed16" : "float";
      row.analytic = ipl.compute_cycles + ipl.fill_cycles;
      row.sched = sc.layer_finish[gi][i - g.first];

      const nn::Network one = d.net.slice(i, i, d.net.name() + "-" + l.name);
      nn::WeightStore ws1;
      if (l.kind == nn::LayerKind::kConv) ws1.set_conv(1, d.ws.conv(i));
      arch::FusionPipeline p1(one, ws1, {ch});
      const std::string base = d.tag + "." + l.name;
      for (int k = 0; k < kReps; ++k) {
        Span s("arch.layer." + base);
        (void)p1.run(acts[i - 1]);
      }
      if (l.kind == nn::LayerKind::kConv) {
        for (int k = 0; k < kReps; ++k) {
          Span s("kernels.conv." + base);
          (void)whole_tensor_conv(l, d.ws.conv(i), ch, acts[i - 1]);
        }
      }
      rows.push_back(row);
    }
  }

  const auto self = tracer().self_ms();
  std::ostringstream table;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-10s %-13s %-8s %12s %12s %10s %10s %7s\n",
                "layer", "algorithm", "datapath", "analytic_cyc",
                "sched_finish", "host_ms", "kernel_ms", "share");
  table << buf;
  for (Row& row : rows) {
    const std::string base = d.tag + "." + row.layer;
    row.host_ms = median(self.at("arch.layer." + base));
    sum_ms += row.host_ms;
    r.set("arch.layer." + base + ".host_ms", row.host_ms, "ms");
    r.set("arch.layer." + base + ".cycles", static_cast<double>(row.analytic),
          "cycles");
    if (const auto it = self.find("kernels.conv." + base); it != self.end()) {
      row.kernel_ms = median(it->second);
      const auto idx = *d.net.find(row.layer);
      r.set("kernels.conv." + base + ".ms", row.kernel_ms, "ms");
      r.set("kernels.conv." + base + ".gops",
            static_cast<double>(d.net[idx].ops()) / (row.kernel_ms * 1e6),
            "GOP/s");
    }
    std::snprintf(buf, sizeof buf,
                  "%-10s %-13s %-8s %12lld %12lld %10.3f %10s %6.1f%%\n",
                  row.layer.c_str(), row.algo.c_str(), row.datapath.c_str(),
                  row.analytic, row.sched, row.host_ms,
                  row.kernel_ms < 0 ? "-"
                                    : std::to_string(row.kernel_ms)
                                          .substr(0, 8)
                                          .c_str(),
                  100.0 * row.host_ms / run_ms);
    table << buf;
  }
  r.set("arch.layer_coverage", sum_ms / run_ms, "ratio");
  std::snprintf(buf, sizeof buf,
                "sum of one-layer host ms %.3f vs pipeline run %.3f ms "
                "(coverage %.3f); kernel GOP/s counts computed ops\n",
                sum_ms, run_ms, sum_ms / run_ms);
  table << buf;
  write_artifact(a, "profile-" + d.tag + ".txt", table.str());
  std::istringstream lines(table.str());
  for (std::string line; std::getline(lines, line);) r.note(line);
}

/// Traced-only calls into core: the fusion table and one direct DSE solve
/// with the deployment's options, for their timings and counts.
void profile_core(const Deployment& d, Report& r) {
  const fpga::EngineModel model(d.dev);
  (void)minimal_transfer_budget(d.net, model, 10 * 1024);
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = d.budget;
  const core::OptimizeResult res = [&] {
    Span s("core.optimize");
    return core::optimize(d.net, model, oo);
  }();
  tracer().count("core.bnb_nodes", static_cast<double>(res.bnb_nodes_visited));
  tracer().count("core.fusion_ranges",
                 static_cast<double>(res.fusion_ranges_evaluated));
  r.set("core.bnb_nodes", static_cast<double>(res.bnb_nodes_visited), "count");
  r.set("core.fusion_ranges", static_cast<double>(res.fusion_ranges_evaluated),
        "count");
  span_metric(r, "core.optimize", "core.optimize_ms");
  span_metric(r, "core.FusionTable", "core.fusion_table_ms");
}

void report_pipeline_stats(const Deployment& d, Report& r) {
  const arch::PipelineStats& st = d.pipe->stats();
  std::size_t fifo = 0;
  for (std::size_t v : st.fifo_max_occupancy) fifo = std::max(fifo, v);
  tracer().count("arch.total_steps", static_cast<double>(st.total_steps));
  r.set("arch.steps_per_image", static_cast<double>(st.total_steps), "count");
  r.set("arch.fifo_max_rows", static_cast<double>(fifo), "count");
}

/// Shared tail of both workloads' traced runs: span-derived layer timings,
/// the profile table, and the core extras.
void traced_extras(const Args& a, const Deployment& d, const ScheduleCheck& sc,
                   const Phase& untraced, const Phase& traced, Report& r) {
  span_metric(r, "caffe.import_prototxt", "caffe.import_ms");
  span_metric(r, "quant.calibrate", "quant.calibrate_ms");
  span_metric(r, "arch.FusionPipeline.ctor", "arch.prepack_ms");
  span_metric(r, "arch.FusionPipeline.run", "arch.run_ms");
  span_metric(r, "nn.run_network", "nn.reference_ms");
  span_metric(r, "toolflow.run_toolflow", "toolflow.run_ms");
  r.set("arch.stream_tax",
        r.metrics.at("arch.run_ms").value / r.metrics.at("nn.reference_ms").value,
        "ratio");
  r.set("trace_overhead_pct",
        100.0 * (untraced.rate() / traced.rate() - 1.0),
        "%");
  report_pipeline_stats(d, r);
  profile_core(d, r);
  profile_layers(a, d, sc, r);
}

/// Runs the main phase: the whole budget untraced, or (traced run) the
/// first half untraced and the second half traced. With `rotate`, call k is
/// pinned to CPU k (single-threaded calls); otherwise calls run unpinned.
template <class StepFn>
std::pair<Phase, Phase> main_phases(const Args& a, bool rotate, StepFn step) {
  auto run = [&](double seconds, bool traced, long long& next) {
    tracer().set_enabled(traced);
    Phase p;
    const auto t0 = Clock::now();
    while (p.op_ms.empty() || ms_since(t0) < seconds * 1e3) {
      const long long k = next++;
      if (rotate) pin_cpu(k);
      const auto o0 = Clock::now();
      p.per_op = step(k);
      p.op_ms.add(rotate ? k : 0, ms_since(o0));
      p.images += p.per_op;
    }
    pin_cpu(-1);
    return p;
  };
  long long next = 0;
  if (!a.trace) return {run(a.seconds, false, next), Phase{}};
  Phase u = run(a.seconds / 2, false, next);
  Phase t = run(a.seconds / 2, true, next);
  return {u, t};
}

}  // namespace

void run_alexnet_stream(const Args& a, Report& r) {
  kernels::set_num_threads(1);
  tracer().set_enabled(a.trace);
  const int reps = setup_reps(kSetupReps);
  std::vector<double> setup_s;
  Deployment d = timed_setup(a, 0, reps / 2, setup_s, setup_alexnet);
  const ScheduleCheck sc = report_modeled(d, r);
  r.note("deployed: " + d.strategy.describe(d.net));

  // Keep the first image, the last, and a seeded sample (1 in 8) of the
  // first kMeasuredImages.
  Kept kept;
  std::pair<std::uint64_t, nn::Tensor> last;
  auto step = [&](long long op) -> long long {
    const auto idx = static_cast<std::uint64_t>(op);
    const nn::Tensor in = image(d.net, a.seed, idx);
    nn::Tensor out = [&] {
      Span s("arch.FusionPipeline.run", op);
      return d.pipe->run(in);
    }();
    if (idx == 0 ||
        (idx < kMeasuredImages && mix_seed(a.seed, ~idx) % 8 == 0)) {
      kept.emplace_back(idx, out);
    }
    last = {idx, std::move(out)};
    return 1;
  };
  const auto [untraced, traced] = main_phases(a, true, step);
  tracer().set_enabled(a.trace);
  if (last.first != 0) kept.push_back(std::move(last));
  const long long bad = check_outputs(a, d, kept, r);
  finish_e2e(untraced, bad, r);
  if (a.trace) {
    r.attempted += traced.images;
    traced_extras(a, d, sc, untraced, traced, r);
  }
  d = Deployment{};
  (void)timed_setup(a, reps / 2, reps, setup_s, setup_alexnet);
  r.set("setup_s", median(setup_s), "s");
}

void run_vgg_head_batch(const Args& a, Report& r) {
  kernels::set_num_threads(1);
  tracer().set_enabled(a.trace);
  const int reps = setup_reps(kSetupReps);
  std::vector<double> setup_s;
  Deployment d = timed_setup(a, 0, reps / 2, setup_s, setup_vgg);
  const ScheduleCheck sc = report_modeled(d, r);
  r.note("deployed: " + d.strategy.describe(d.net));
  const int batch = a.threads;

  Kept kept;
  std::pair<std::uint64_t, nn::Tensor> last;
  auto step = [&](long long op) -> long long {
    std::vector<nn::Tensor> in;
    const auto base = static_cast<std::uint64_t>(op) * batch;
    for (int k = 0; k < batch; ++k) in.push_back(image(d.net, a.seed, base + k));
    std::vector<nn::Tensor> out = [&] {
      Span s("arch.FusionPipeline.run_batch", op);
      return d.pipe->run_batch(in, batch);
    }();
    if (op == 0) kept.emplace_back(0, out.front());
    last = {base + batch - 1, std::move(out.back())};
    return batch;
  };
  // run_batch spreads each call over nproc threads, so calls run unpinned.
  const auto [untraced, traced] = main_phases(a, false, step);
  tracer().set_enabled(a.trace);
  kept.push_back(std::move(last));

  // run_batch on nproc threads must be byte-identical to run() on one.
  long long bad = 0;
  for (const auto& [idx, out] : kept) {
    const nn::Tensor in = image(d.net, a.seed, idx);
    const nn::Tensor single = [&] {
      Span s("arch.FusionPipeline.run", static_cast<long long>(idx));
      return d.pipe->run(in);
    }();
    const bool same =
        single.vec().size() == out.vec().size() &&
        std::memcmp(single.vec().data(), out.vec().data(),
                    out.vec().size() * sizeof(float)) == 0;
    if (!same) {
      ++bad;
      r.gate(false, "run_batch output differs from run() for image " +
                        std::to_string(idx));
    }
  }
  bad += check_outputs(a, d, kept, r);
  finish_e2e(untraced, bad, r);
  if (a.trace) {
    r.attempted += traced.images;
    // Batch scaling: img/s at nproc threads over nproc x img/s at one.
    std::vector<nn::Tensor> in;
    for (int k = 0; k < 2; ++k) in.push_back(image(d.net, a.seed, k));
    const auto t0 = Clock::now();
    {
      Span s("arch.FusionPipeline.run_batch.1thread");
      (void)d.pipe->run_batch(in, 1);
    }
    const double one = 2.0 / (ms_since(t0) / 1e3);
    r.set("kernels.batch_scaling", untraced.rate() / (batch * one), "ratio");
    traced_extras(a, d, sc, untraced, traced, r);
  }
  d = Deployment{};
  (void)timed_setup(a, reps / 2, reps, setup_s, setup_vgg);
  r.set("setup_s", median(setup_s), "s");
}

}  // namespace perfbench
