// The single-model server — the fleet loop with one model, one tenant and
// batch 1 (serve::single_model_server): bounded-queue admission and
// back-pressure, virtual-clock deadlines with load-shedding, deterministic
// retry/backoff with downgrade onto the conservative rung, replica
// quarantine with half-open recovery, and the determinism contract — same
// trace + seed + config produces byte-identical FleetStats for any
// worker-thread count. Also the pipeline-side hooks the runtime depends on:
// reset() idempotence, cooperative cancellation, and structured
// fault-identity payloads on escalation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "fault/fault.h"
#include "fault/fleet_fault.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve/queue.h"
#include "serve/stats.h"
#include "serve/trace.h"
#include "support/error.h"

namespace hetacc {
namespace {

using arch::FusionPipeline;
using fault::FaultPlan;
using fault::ProtectionConfig;
using serve::ArrivalTrace;
using serve::BoundedQueue;
using serve::FleetConfig;
using serve::FleetStats;
using serve::HealthEvent;
using serve::LatencyHistogram;
using serve::ServingMode;
using serve::TenantStats;

// ------------------------------------------------------------ typed error --
TEST(ServeErrorType, CarriesReasonAndMapsToExitCode5) {
  const ServeError e(ServeError::Reason::kQueueFull, "queue at capacity");
  EXPECT_EQ(e.category(), ErrorCategory::kServe);
  EXPECT_EQ(e.exit_code(), 5);
  EXPECT_EQ(e.reason(), ServeError::Reason::kQueueFull);
  EXPECT_EQ(to_string(ServeError::Reason::kDeadline), "deadline");
  EXPECT_EQ(to_string(ErrorCategory::kServe), "serve");
}

// ----------------------------------------------------------- bounded queue --
TEST(BoundedQueueTest, TryPushRefusesWhenFullPopMakesRoom) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // admission control: full
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsConsumersAndRefusesProducers) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));
  EXPECT_FALSE(q.push(9));
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // drains what was queued before close
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerFreesASlot) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::atomic<bool> second_in{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block until the pop below
    second_in = true;
  });
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  producer.join();
  EXPECT_TRUE(second_in);
}

// MPMC contention under TSan: every item is delivered exactly once, bound
// never exceeded, producers mix blocking and non-blocking pushes.
TEST(BoundedQueueTest, MpmcStressDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s = 0;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        if (i % 2 == 0) {
          while (!q.try_push(item)) std::this_thread::yield();
        } else {
          ASSERT_TRUE(q.push(item));
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int item = 0;
      while (q.pop(item)) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// ------------------------------------------------------- latency histogram --
TEST(LatencyHistogramTest, NearestRankPercentiles) {
  LatencyHistogram h;
  for (long long v : {50, 10, 20, 30, 40}) h.record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.p50(), 30);
  EXPECT_EQ(h.p99(), 50);
  EXPECT_EQ(h.max(), 50);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
  EXPECT_EQ(h.percentile(0.0), 10);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------- arrival traces --
TEST(ArrivalTraceTest, SyntheticIsDeterministicAndMonotonic) {
  const ArrivalTrace a = ArrivalTrace::synthetic(200, 1000, 42, 3.0);
  const ArrivalTrace b = ArrivalTrace::synthetic(200, 1000, 42, 3.0);
  ASSERT_EQ(a.requests.size(), 200u);
  long long prev = -1;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, i);
    EXPECT_GE(a.requests[i].arrival_cycle, prev);
    prev = a.requests[i].arrival_cycle;
    EXPECT_EQ(a.requests[i].arrival_cycle, b.requests[i].arrival_cycle);
    EXPECT_EQ(a.requests[i].input_seed, b.requests[i].input_seed);
  }
  // Different seed, different trace.
  const ArrivalTrace c = ArrivalTrace::synthetic(200, 1000, 43, 3.0);
  EXPECT_NE(a.requests.back().arrival_cycle, c.requests.back().arrival_cycle);
}

TEST(ArrivalTraceTest, SurgeCompressesTheMiddleThird) {
  const ArrivalTrace flat = ArrivalTrace::synthetic(300, 1000, 7, 1.0);
  const ArrivalTrace surged = ArrivalTrace::synthetic(300, 1000, 7, 4.0);
  const auto span = [](const ArrivalTrace& t, std::size_t lo, std::size_t hi) {
    return t.requests[hi].arrival_cycle - t.requests[lo].arrival_cycle;
  };
  EXPECT_EQ(span(flat, 0, 99), span(surged, 0, 99));  // head untouched
  EXPECT_GT(span(flat, 100, 199), 2 * span(surged, 100, 199));
}

TEST(ArrivalTraceTest, CsvRoundTripIsExact) {
  const ArrivalTrace a = ArrivalTrace::synthetic(64, 500, 9, 2.0);
  const ArrivalTrace b = ArrivalTrace::from_csv(a.to_csv());
  ASSERT_EQ(b.requests.size(), a.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(b.requests[i].id, a.requests[i].id);
    EXPECT_EQ(b.requests[i].arrival_cycle, a.requests[i].arrival_cycle);
    EXPECT_EQ(b.requests[i].input_seed, a.requests[i].input_seed);
  }
}

TEST(ArrivalTraceTest, FromCsvRejectsGarbageWithLineNumbers) {
  EXPECT_THROW((void)ArrivalTrace::from_csv(""), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv("wrong,header\n"), ParseError);
  const std::string head = "id,arrival_cycle,input_seed\n";
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "0,10\n"), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "0,ten,1\n"), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "1,10,1\n"), ParseError);
  EXPECT_THROW(
      (void)ArrivalTrace::from_csv(head + "0,10,1\n1,5,2\n"),  // time warp
      ParseError);
  try {
    (void)ArrivalTrace::from_csv(head + "0,10,1\n1,bad,2\n");
    FAIL() << "garbled row accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

// ------------------------------------------------------------- fleet stats --
TEST(FleetStatsTest, AccountedRequiresEveryRequestToLandSomewhere) {
  TenantStats t;
  t.submitted = 10;
  t.completed = 7;
  t.rejected_queue_full = 1;
  t.shed_deadline = 1;
  FleetStats s;
  s.tenants = {t};
  EXPECT_FALSE(s.accounted());
  s.tenants[0].failed = 1;
  EXPECT_TRUE(s.accounted());
  EXPECT_NE(s.to_json().find("\"submitted\": 10"), std::string::npos);
}

// ----------------------------------------------------------------- server --
class ServerTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);

  static ServingMode mode(long long cycles) {
    ServingMode m;
    m.service_cycles = cycles;  // empty choices = all-conventional float
    return m;
  }

  /// The [fallback 1600, primary 1000] pair, home = primary.
  static serve::ServingLadder pair(ServingMode primary = mode(1000),
                                   ServingMode fallback = mode(1600)) {
    serve::ServingLadder l;
    l.rungs = {std::move(fallback), std::move(primary)};
    l.home = 1;
    return l;
  }

  static FleetConfig base_config() {
    FleetConfig cfg;
    cfg.max_retries = 1;
    return cfg;
  }

  serve::FleetServer server(serve::ServingLadder ladder, int replicas = 2,
                            std::size_t queue = 64, long long deadline = 0,
                            FleetConfig cfg = base_config()) const {
    return serve::single_model_server(
        {"tiny", net_, ws_, std::move(ladder), replicas}, queue, deadline,
        cfg);
  }

  /// A burst over the middle third of `t` that wedges the home-rung
  /// pipeline: the hard, deterministic failure the watchdog + retry +
  /// quarantine chain must absorb.
  static fault::FleetFaultPlan burst_plan(const ArrivalTrace& t,
                                          std::uint64_t seed) {
    fault::FleetFaultEvent e;
    e.kind = fault::FleetFaultKind::kPipelineBurst;
    e.cycle = t.last_arrival() / 3;
    e.burst_until = 2 * t.last_arrival() / 3;
    e.burst_plan.seed = seed;
    e.burst_plan.wedge_channel = 0;
    e.burst_plan.wedge_after_pushes = 2;
    fault::FleetFaultPlan p;
    p.events = {e};
    return p;
  }
};

TEST_F(ServerTest, RejectsUnusableConfigurations) {
  EXPECT_THROW((void)server(pair(), /*replicas=*/0), ServeError);
  EXPECT_THROW((void)server(pair(), 2, /*queue=*/0), ServeError);
  EXPECT_THROW((void)server(pair(mode(0))), ServeError);
  ServingMode bad = mode(10);
  bad.choices.resize(2);  // tiny_net has 4 accelerated layers
  EXPECT_THROW((void)server(pair(bad)), ServeError);
  FleetConfig cfg = base_config();
  cfg.max_retries = -1;
  EXPECT_THROW((void)server(pair(), 2, 64, 0, cfg), ServeError);
  try {
    (void)server(pair(mode(10), mode(10)));
  } catch (const ServeError& e) {
    FAIL() << "valid config rejected: " << e.what();
  }
}

TEST_F(ServerTest, HealthyTraceCompletesEveryRequestOnThePrimary) {
  serve::FleetServer s = server(pair());
  const FleetStats st = s.run({ArrivalTrace::synthetic(40, 1500, 3)});
  const TenantStats& t = st.tenants[0];
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(t.submitted, 40);
  EXPECT_EQ(t.completed, 40);
  EXPECT_EQ(t.completed_degraded, 0);
  EXPECT_EQ(t.rejected_queue_full, 0);
  EXPECT_EQ(t.shed_deadline, 0);
  EXPECT_EQ(t.failed, 0);
  EXPECT_EQ(st.retries, 0);
  EXPECT_EQ(st.quarantines, 0);
  EXPECT_EQ(st.models[0].batch_size_counts.size(), 2u);  // batch 1 only
  EXPECT_GE(t.latency.p50(), 1000);  // at least one service time
  EXPECT_NE(st.response_hash, 0u);
}

TEST_F(ServerTest, OverloadIsRejectedAtTheQueueBoundNeverLost) {
  // One slow replica, a tiny queue, and a tight arrival burst: admission
  // control must refuse the overflow instead of queueing without bound.
  serve::FleetServer s = server(pair(), /*replicas=*/1, /*queue=*/3);
  const FleetStats st = s.run({ArrivalTrace::synthetic(50, 100, 11)});
  const TenantStats& t = st.tenants[0];
  EXPECT_TRUE(st.accounted());
  EXPECT_GT(t.rejected_queue_full, 0);
  EXPECT_LE(t.queue_peak, 3);
  EXPECT_EQ(t.completed + t.rejected_queue_full, t.submitted);
}

TEST_F(ServerTest, LateRequestsAreShedAndMissesCounted) {
  serve::FleetServer s =
      server(pair(), /*replicas=*/1, 64, /*deadline=*/2500);
  const FleetStats st = s.run({ArrivalTrace::synthetic(50, 300, 13)});
  const TenantStats& t = st.tenants[0];
  EXPECT_TRUE(st.accounted());
  EXPECT_GT(t.shed_deadline, 0);  // shed before wasting a replica
  EXPECT_EQ(t.failed, 0);
  // Whatever completed either met the deadline or was counted as a miss.
  EXPECT_GT(t.completed, 0);
}

TEST_F(ServerTest, PipelineBurstIsAbsorbedByRetriesAndQuarantine) {
  const ArrivalTrace t = ArrivalTrace::synthetic(60, 800, 7);
  serve::FleetServer s = server(pair());
  const FleetStats st = s.run({t}, burst_plan(t, 7));
  const TenantStats& ts = st.tenants[0];
  EXPECT_TRUE(st.accounted());
  EXPECT_EQ(ts.failed, 0);  // nothing escapes: retry or downgrade covers all
  EXPECT_EQ(ts.completed, ts.submitted);
  EXPECT_GT(st.retries, 0);
  EXPECT_GT(ts.completed_degraded, 0);  // downgraded around the wedge
  EXPECT_GE(st.quarantines, 1);
  // Recovery: some replica walked quarantine -> respawn -> probe -> readmit,
  // in that order.
  std::vector<HealthEvent::Kind> walk;
  for (const HealthEvent& e : s.health_log()) {
    if (e.replica == 0) walk.push_back(e.kind);
  }
  const auto pos = [&](HealthEvent::Kind k) {
    return std::find(walk.begin(), walk.end(), k) - walk.begin();
  };
  ASSERT_LT(pos(HealthEvent::Kind::kReadmit),
            static_cast<long>(walk.size()));
  EXPECT_LT(pos(HealthEvent::Kind::kQuarantine),
            pos(HealthEvent::Kind::kRespawn));
  EXPECT_LT(pos(HealthEvent::Kind::kRespawn), pos(HealthEvent::Kind::kProbe));
  EXPECT_LT(pos(HealthEvent::Kind::kProbe), pos(HealthEvent::Kind::kReadmit));
  // ...and the run ends recovered: every replica's last health event is a
  // readmit, none is left quarantined or on probation.
  EXPECT_EQ(st.unrecovered_replicas, 0);
  std::map<int, HealthEvent::Kind> last;
  for (const HealthEvent& e : s.health_log()) {
    if (e.replica >= 0) last[e.replica] = e.kind;
  }
  for (const auto& [replica, kind] : last) {
    EXPECT_EQ(kind, HealthEvent::Kind::kReadmit) << "replica " << replica;
  }
}

// The determinism contract (DESIGN.md §11): worker threads only change how
// fast the functional work grinds through, never any stat. Exercises every
// path at once — overload, deadlines, fault burst, retries, quarantine.
TEST_F(ServerTest, StatsAreByteIdenticalForAnyWorkerCount) {
  const ArrivalTrace t = ArrivalTrace::synthetic(80, 800, 17);
  std::vector<FleetStats> runs;
  std::vector<std::vector<HealthEvent>> logs;
  for (const int threads : {1, 2, 8}) {
    FleetConfig cfg = base_config();
    cfg.threads = threads;
    serve::FleetServer s = server(pair(), 2, /*queue=*/8,
                                  /*deadline=*/20000, cfg);
    runs.push_back(s.run({t}, burst_plan(t, 17)));
    logs.push_back(s.health_log());
    EXPECT_TRUE(runs.back().accounted());
  }
  EXPECT_GT(runs[0].retries, 0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(runs[i] == runs[0]) << "stats diverged at run " << i;
    ASSERT_EQ(logs[i].size(), logs[0].size());
    for (std::size_t k = 0; k < logs[i].size(); ++k) {
      EXPECT_EQ(logs[i][k].cycle, logs[0][k].cycle);
      EXPECT_EQ(logs[i][k].kind, logs[0][k].kind);
    }
  }
}

TEST_F(ServerTest, ResponseDigestDependsOnRequestPayloads) {
  ArrivalTrace a = ArrivalTrace::synthetic(10, 2000, 5);
  ArrivalTrace b = a;
  for (auto& r : b.requests) r.input_seed += 1;  // same arrivals, new inputs
  serve::FleetServer s = server(pair());
  const FleetStats sa = s.run({a});
  const FleetStats sb = s.run({b});
  EXPECT_EQ(sa.tenants[0].completed, sb.tenants[0].completed);
  EXPECT_NE(sa.response_hash, sb.response_hash);
}

TEST_F(ServerTest, RejectsTracesWithNonDenseIds) {
  ArrivalTrace t = ArrivalTrace::synthetic(4, 100, 1);
  t.requests[2].id = 9;
  serve::FleetServer s = server(pair());
  EXPECT_THROW((void)s.run({t}), ServeError);
}

// ---------------------------------------------- pipeline hooks (satellites) --
class PipelineHookTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);
  nn::Tensor input_{net_[0].out};

  void SetUp() override { nn::fill_deterministic(input_, 22); }
};

TEST_F(PipelineHookTest, ResetIsIdempotentAndRestoresCorruptedConstants) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p);  // detectors off: resident panels corrupt
  EXPECT_NE(pipe.run(input_), golden);
  pipe.clear_fault_plan();

  pipe.reset();
  const nn::Tensor once = pipe.run(input_);
  EXPECT_EQ(once, golden);
  pipe.reset();
  pipe.reset();  // idempotent: twice leaves the same state as once
  EXPECT_EQ(pipe.run(input_), golden);
}

TEST_F(PipelineHookTest, ResetWithPlanInstalledRestrikesDeterministically) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);
  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p);
  const nn::Tensor struck = pipe.run(input_);
  pipe.reset();  // models "reload the accelerator", faults re-strike
  EXPECT_EQ(pipe.run(input_), struck);
  EXPECT_NE(struck, golden);
  pipe.clear_fault_plan();
}

TEST_F(PipelineHookTest, ResetRearmsAMidBatchWedgeForReuse) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan wedge;
  wedge.seed = 1;
  wedge.wedge_channel = 0;
  wedge.wedge_after_pushes = 2;
  pipe.install_fault_plan(wedge, ProtectionConfig::all_on());
  EXPECT_THROW((void)pipe.run(input_), FaultError);
  pipe.clear_fault_plan();
  pipe.reset();

  // The same pipeline object is reusable mid-batch after the wedge: a
  // multi-image batch comes back bit-exact against the healthy run.
  const std::vector<nn::Tensor> batch(3, input_);
  const auto outs = pipe.run_batch(batch, 2);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& o : outs) EXPECT_EQ(o, golden);
  EXPECT_EQ(pipe.run(input_), golden);
}

TEST_F(PipelineHookTest, CancelTokenAbandonsTheRunWithATypedError) {
  FusionPipeline pipe(net_, ws_);
  const std::atomic<bool> cancelled{true};
  pipe.set_cancel_token(&cancelled);
  try {
    (void)pipe.run(input_);
    FAIL() << "cancelled run completed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.reason(), ServeError::Reason::kCancelled);
    EXPECT_EQ(e.exit_code(), 5);
  }
  pipe.set_cancel_token(nullptr);
  EXPECT_NO_THROW((void)pipe.run(input_));
}

TEST_F(PipelineHookTest, WedgeEscalationCarriesStageAndChannelIdentity) {
  FusionPipeline pipe(net_, ws_);
  FaultPlan p;
  p.seed = 1;
  p.wedge_channel = 0;
  p.wedge_after_pushes = 3;
  pipe.install_fault_plan(p, ProtectionConfig::all_on());
  try {
    (void)pipe.run(input_);
    FAIL() << "wedged pipeline completed";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.stage(), net_[1].name);
    EXPECT_EQ(e.unit(), 0);  // the wedged channel
  }
  // The injector kept the first unrecovered fault's identity for reports.
  const auto fs = pipe.fault_stats();
  EXPECT_TRUE(fs.first_unrecovered.valid);
  EXPECT_EQ(fs.first_unrecovered.site, fault::FaultSite::kFifoPush);
  EXPECT_EQ(fs.first_unrecovered.stream, 0u);
  EXPECT_FALSE(fs.first_unrecovered.describe().empty());
  pipe.clear_fault_plan();
}

TEST(DdrFailurePayload, UnrecoveredBurstsCarryFullIdentity) {
  arch::DdrTrace trace;
  trace.transactions.push_back(
      {arch::DdrOp::kLoadWeights, 2, "conv1-w", 64 * 1024, 0, 100});
  trace.total_cycles = 100;
  FaultPlan p;
  p.seed = 4;
  p.ddr_burst_flip_rate = 1.0;  // every burst and every re-read is hit
  const fault::FaultInjector inj(p);
  const auto dev = fpga::zc706();
  const auto rep = arch::replay_trace_with_faults(trace, dev, inj,
                                                  ProtectionConfig::all_on());
  ASSERT_GT(rep.unrecovered, 0);
  ASSERT_EQ(rep.failures.size(), static_cast<std::size_t>(rep.unrecovered));
  const auto& f = rep.failures.front();
  EXPECT_EQ(f.transaction, 0u);
  EXPECT_EQ(f.group, 2u);
  EXPECT_EQ(f.what, "conv1-w");
  EXPECT_EQ(f.attempts, ProtectionConfig::all_on().retry_limit);
  const FaultError err = f.to_error();
  EXPECT_EQ(err.category(), ErrorCategory::kFault);
  EXPECT_EQ(err.stage(), "conv1-w");
  EXPECT_EQ(err.unit(), f.burst);
  EXPECT_EQ(err.attempts(), f.attempts);
  EXPECT_NE(std::string(err.what()).find("unrecovered"), std::string::npos);
}

}  // namespace
}  // namespace hetacc
