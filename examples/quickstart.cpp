// Quickstart: build a small CNN, let the optimizer pick fusion groups and
// per-layer algorithms for a ZC706, validate the resulting architecture
// functionally against the reference executor, and emit HLS source.
//
//   ./quickstart [output-dir]

#include <cstdio>

#include "arch/pipeline.h"
#include "codegen/generator.h"
#include "core/dp_optimizer.h"
#include "core/report.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"

using namespace hetacc;

int main(int argc, char** argv) {
  // 1. Describe the network (or import a Caffe prototxt, see caffe_import).
  nn::Network net("quickstart");
  net.input({3, 64, 64});
  net.conv(16, 3, 1, 1, "conv1");
  net.conv(16, 3, 1, 1, "conv2");
  net.max_pool(2, 2, "pool1");
  net.conv(32, 3, 1, 1, "conv3");
  std::printf("%s\n", net.summary().c_str());

  // 2. Optimize for the target FPGA under a feature-map transfer budget.
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 2 * 1024 * 1024;
  const core::OptimizeResult result = core::optimize(net, model, oo);
  if (!result.feasible) {
    std::printf("no feasible strategy under the budget\n");
    return 1;
  }
  std::printf("%s\n", result.strategy.describe(net).c_str());
  const core::StrategyReport rep = core::make_report(result.strategy, net, dev);
  std::printf("latency %.3f ms, %.1f GOPS, %.2f W, %.1f GOPS/W\n\n",
              rep.latency_ms, rep.effective_gops, rep.power.total(),
              rep.energy_efficiency_gops_per_w);

  // 3. Validate the chosen architecture functionally: stream an image
  //    through line-buffer engines using the optimizer's algorithm choices.
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 1);
  arch::FusionPipeline pipe(net, ws, arch::choices_of(result.strategy));
  nn::Tensor image(net[0].out);
  nn::fill_deterministic(image, 2);
  const nn::Tensor streamed = pipe.run(image);
  const nn::Tensor golden = nn::run_network(net, ws, image);
  std::printf("streamed-vs-reference max error: %.2e\n",
              streamed.max_abs_diff(golden));

  // 4. Generate the HLS project for the strategy.
  const auto design =
      codegen::generate_design(net, result.strategy, ws, {});
  const std::string dir = argc > 1 ? argv[1] : "quickstart_design";
  codegen::write_design(design, dir);
  std::printf("HLS project written to %s/ (design.h, design.cpp, main.cpp, "
              "hls_compat.h)\n",
              dir.c_str());
  return 0;
}
