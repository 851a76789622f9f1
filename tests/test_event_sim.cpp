#include "arch/event_sim.h"

#include <gtest/gtest.h>

#include "arch/pipeline.h"
#include "core/dp_optimizer.h"
#include "nn/model_zoo.h"

namespace hetacc::arch {
namespace {

using fpga::ConvAlgo;
using fpga::EngineModel;

class EventSimTest : public ::testing::Test {
 protected:
  fpga::Device dev_ = fpga::zc706();
  EngineModel model_{dev_};

  std::vector<fpga::Implementation> impls_for(const nn::Network& net,
                                              bool winograd) {
    std::vector<fpga::Implementation> impls;
    for (std::size_t i = 1; i < net.size(); ++i) {
      fpga::EngineConfig cfg;
      if (net[i].kind == nn::LayerKind::kConv) {
        cfg.algo = (winograd && EngineModel::winograd_ok(net[i]))
                       ? ConvAlgo::kWinograd
                       : ConvAlgo::kConventional;
        cfg.tn = 2;
        cfg.tm = 4;
      } else {
        cfg.algo = ConvAlgo::kNone;
        cfg.tn = 2;
      }
      impls.push_back(model_.implement(net[i], cfg));
    }
    return impls;
  }
};

TEST_F(EventSimTest, CompletesAndTracksOccupancy) {
  const nn::Network net = nn::tiny_net(4, 32);
  const auto impls = impls_for(net, false);
  const auto r = simulate_dataflow(net, 1, net.size() - 1, impls, dev_, 16);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.makespan_cycles, 0);
  ASSERT_EQ(r.fifo_max_occupancy.size(), net.size());
  for (std::size_t k = 1; k + 1 < r.fifo_max_occupancy.size(); ++k) {
    EXPECT_LE(r.fifo_max_occupancy[k], 16u);
  }
}

TEST_F(EventSimTest, UnboundedMatchesScheduleRecurrenceClosely) {
  const nn::Network net = nn::conv_chain(4, 16, 48);
  const auto impls = impls_for(net, false);
  const auto ev =
      simulate_dataflow(net, 1, net.size() - 1, impls, dev_, SIZE_MAX / 2);
  const auto sched = simulate_schedule(net, 1, net.size() - 1, impls, dev_);
  ASSERT_TRUE(ev.completed);
  const double ratio = static_cast<double>(ev.makespan_cycles) /
                       static_cast<double>(sched.makespan_cycles);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

// With unbounded channels the event simulator and the row-level schedule
// recurrence are one model: each engine emits a row as soon as its window's
// deepest producer row and its own previous row are done. Pinned exactly on
// every group the optimizer picks across the zoo, three devices and three
// transfer budgets — minimal_fifo_depth_rows relies on it for its baseline.
TEST(EventSimPin, UnboundedMakespanEqualsScheduleOnEveryChosenGroup) {
  const nn::Network zoo[] = {nn::alexnet(),    nn::vgg_e(),
                             nn::vgg16(),      nn::vgg_e_head(),
                             nn::nin(),        nn::inception_mini(),
                             nn::resnet_mini()};
  int groups = 0;
  for (const nn::Network& full : zoo) {
    const nn::Network net = full.accelerated_portion();
    for (const fpga::Device& dev :
         {fpga::zc706(), fpga::vc707(), fpga::vx690t()}) {
      const EngineModel model(dev);
      for (const double frac : {0.25, 0.5, 1.0}) {
        core::OptimizerOptions oo;
        const long long unfused =
            net.unfused_feature_transfer_bytes(dev.data_bytes) +
            static_cast<long long>(net.size()) * oo.transfer_unit_bytes;
        oo.transfer_budget_bytes =
            static_cast<long long>(frac * static_cast<double>(unfused));
        const core::OptimizeResult r = core::optimize(net, model, oo);
        if (!r.feasible) continue;
        for (const auto& g : r.strategy.groups) {
          const auto ev = simulate_dataflow(net, g.first, g.last, g.impls,
                                            dev, SIZE_MAX / 2);
          ASSERT_TRUE(ev.completed);
          EXPECT_EQ(ev.makespan_cycles,
                    simulate_schedule(net, g.first, g.last, g.impls, dev)
                        .makespan_cycles)
              << net.name() << " " << dev.name << " " << frac << " group ["
              << g.first << ", " << g.last << "]";
          ++groups;
        }
      }
    }
  }
  EXPECT_GT(groups, 200);
}

TEST_F(EventSimTest, DeeperFifosNeverSlower) {
  const nn::Network net = nn::tiny_net(8, 32);
  const auto impls = impls_for(net, true);
  long long prev = -1;
  for (std::size_t cap : {4u, 8u, 32u, 256u}) {
    const auto r = simulate_dataflow(net, 1, net.size() - 1, impls, dev_, cap);
    ASSERT_TRUE(r.completed) << cap;
    if (prev >= 0) {
      EXPECT_LE(r.makespan_cycles, prev + prev / 50) << cap;
    }
    prev = (prev < 0) ? r.makespan_cycles : std::min(prev, r.makespan_cycles);
  }
}

TEST_F(EventSimTest, WinogradBurstNeedsBlockDeepFifo) {
  // An F(4x4,3x3) engine retires 4 rows per tile pass: capacity < 4 on its
  // output channel deadlocks the row-granular dataflow.
  nn::Network net("w");
  net.input({4, 24, 24});
  net.conv(4, 3, 1, 1, "c1");
  net.conv(4, 3, 1, 1, "c2");
  std::vector<fpga::Implementation> impls;
  impls.push_back(
      model_.implement(net[1], {ConvAlgo::kWinograd, 1, 2, 1, 4}));
  impls.push_back(
      model_.implement(net[2], {ConvAlgo::kConventional, 2, 2, 1, 4}));
  const auto shallow = simulate_dataflow(net, 1, 2, impls, dev_, 3);
  EXPECT_FALSE(shallow.completed);
  const auto ok = simulate_dataflow(net, 1, 2, impls, dev_, 4);
  EXPECT_TRUE(ok.completed);
}

TEST_F(EventSimTest, MinimalDepthFindsSmallValue) {
  const nn::Network net = nn::tiny_net(4, 32);
  const auto impls = impls_for(net, true);
  const std::size_t depth =
      minimal_fifo_depth_rows(net, 1, net.size() - 1, impls, dev_);
  EXPECT_GE(depth, 1u);
  EXPECT_LE(depth, 64u);
  // And the chosen depth indeed lands within tolerance of unbounded.
  const auto bounded =
      simulate_dataflow(net, 1, net.size() - 1, impls, dev_, depth);
  const auto unbounded =
      simulate_dataflow(net, 1, net.size() - 1, impls, dev_, SIZE_MAX / 2);
  ASSERT_TRUE(bounded.completed);
  EXPECT_LE(static_cast<double>(bounded.makespan_cycles),
            1.021 * static_cast<double>(unbounded.makespan_cycles));
}

TEST_F(EventSimTest, StallCyclesDropWithCapacity) {
  const nn::Network net = nn::conv_chain(3, 8, 32);
  const auto impls = impls_for(net, true);
  const auto tight = simulate_dataflow(net, 1, 3, impls, dev_, 4);
  const auto roomy = simulate_dataflow(net, 1, 3, impls, dev_, 128);
  ASSERT_TRUE(tight.completed);
  ASSERT_TRUE(roomy.completed);
  EXPECT_GE(tight.producer_stall_cycles, roomy.producer_stall_cycles);
}

TEST_F(EventSimTest, InvalidArgsThrow) {
  const nn::Network net = nn::tiny_net(4, 16);
  const auto impls = impls_for(net, false);
  EXPECT_THROW(
      (void)simulate_dataflow(net, 1, net.size() - 1, impls, dev_, 0),
      std::invalid_argument);
  EXPECT_THROW((void)simulate_dataflow(net, 2, 1, impls, dev_, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetacc::arch
