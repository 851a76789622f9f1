// SRV: serving-runtime characterization for DESIGN.md §11/§14. Drives the
// same synthetic arrival trace through the single-model server (the fleet
// loop with one model, one tenant and batch 1) under three conditions —
// healthy, mid-trace pipeline fault burst (wedged primary), and
// fallback-only — and reports the virtual-time service quality (p50/p99
// latency, degraded share, retries) next to the real wall-clock execution
// throughput of the worker pool. The fault-burst row quantifies the price
// of resilience: how much tail latency retry, downgrade and replica
// quarantine spend to keep zero requests lost. A second section pits the
// degradation ladder against shed-everything and the binary pair on an
// oscillating-overload trace (the §14 hot-swap scenario) and on a
// burst-then-calm recovery trace. Emits a table and BENCH_serve.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve_common.h"

using namespace hetacc;

namespace {

serve::ServingMode mode(long long cycles, const char* label) {
  serve::ServingMode m;
  m.service_cycles = cycles;
  m.label = label;
  return m;
}

serve::ServingLadder ladder_of(std::vector<serve::ServingMode> rungs,
                               std::size_t home) {
  serve::ServingLadder l;
  l.rungs = std::move(rungs);
  l.home = home;
  return l;
}

void emit(std::vector<bench::ServeRecord>& out, const std::string& scenario,
          const serve::FleetStats& s, double wall_ms) {
  const serve::TenantStats& t = s.tenants[0];
  bench::ServeRecord r{scenario, s.to_json(), wall_ms,
                       bench::req_per_s(t.completed, wall_ms)};
  std::printf(
      "  %-13s %6lld ok (%4lld degraded) %4lld retries  p50 %7lld  "
      "p99 %7lld cyc  %8.1f req/s  %s\n",
      scenario.c_str(), t.completed, t.completed_degraded, s.retries,
      t.latency.p50(), t.latency.p99(), r.req_per_s,
      s.accounted() ? "accounted" : "LOST REQUESTS");
  out.push_back(std::move(r));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoull(argv[1]) : 2000;
  bench::header("SRV", "serving runtime: healthy vs fault burst vs fallback");

  const nn::Network net = nn::tiny_net(4, 16);
  const auto ws = nn::WeightStore::deterministic(net, 21);
  const serve::ServingMode primary = mode(1000, "primary");
  const serve::ServingMode fallback = mode(1600, "fallback");

  const serve::ArrivalTrace healthy = serve::ArrivalTrace::synthetic(
      n, /*mean=*/1200, /*seed=*/17, /*surge=*/2.0);
  // The middle third of the trace wedges every home-rung pipeline.
  fault::FleetFaultPlan burst;
  {
    fault::FleetFaultEvent e;
    e.kind = fault::FleetFaultKind::kPipelineBurst;
    e.cycle = healthy.last_arrival() / 3;
    e.burst_until = 2 * healthy.last_arrival() / 3;
    e.burst_plan.seed = 17;
    e.burst_plan.wedge_channel = 0;
    e.burst_plan.wedge_after_pushes = 2;
    burst.events.push_back(e);
  }

  std::vector<bench::ServeRecord> recs;
  const auto run = [&](const std::string& name,
                       const serve::ArrivalTrace& trace,
                       serve::ServingLadder ladder, std::size_t queue,
                       long long deadline, const fault::FleetFaultPlan& plan) {
    serve::FleetServer server = serve::single_model_server(
        {name, net, ws, std::move(ladder), /*replicas=*/2}, queue, deadline);
    double wall_ms = 0.0;
    const serve::FleetStats s = bench::timed_ms(
        wall_ms, [&] { return server.run({trace}, plan); });
    emit(recs, name, s, wall_ms);
    return s;
  };

  std::printf("%zu requests, 2 replicas, primary %lld / fallback %lld "
              "cycles per request\n\n",
              n, primary.service_cycles, fallback.service_cycles);
  const serve::FleetStats h =
      run("healthy", healthy, ladder_of({fallback, primary}, 1), 64, 0, {});
  const serve::FleetStats b = run(
      "fault-burst", healthy, ladder_of({fallback, primary}, 1), 64, 0, burst);
  // Fallback-only: what the degraded strategy alone would deliver — the
  // lower bound a downgraded request falls back to.
  const serve::FleetStats s_fb =
      run("fallback", healthy, ladder_of({fallback, fallback}, 1), 64, 0, {});
  const serve::TenantStats& bt = b.tenants[0];
  std::printf(
      "\nfault-burst delta vs healthy: p99 %+lld cycles, %lld retried, "
      "%lld served degraded, %lld quarantines, %lld readmits, %lld failed, "
      "%lld lost\n",
      bt.latency.p99() - h.tenants[0].latency.p99(), b.retries,
      bt.completed_degraded, b.quarantines, b.readmits, bt.failed,
      bt.submitted - bt.completed - bt.rejected_queue_full -
          bt.shed_deadline - bt.failed);

  // ---- degradation ladder vs shed-everything under oscillating overload.
  // Burst arrivals (one per 400 cycles) land between the 2-replica home
  // capacity (one per 500) and the int8 rung's (one per 320): the primary
  // drowns, the deep rung keeps up. The ladder may hot-swap onto the
  // 640-cycle int8 rung; the binary pair and the shed-only server must
  // ride out the bursts at home.
  std::printf("\nladder under oscillating overload (deadline 4000 cycles)\n\n");
  const std::size_t per_phase = n / 8 > 8 ? n / 8 : 8;
  const serve::ArrivalTrace osc = serve::ArrivalTrace::oscillating(
      /*periods=*/4, per_phase, /*burst=*/400, /*lull=*/2000, /*seed=*/11);
  // One long burst, then a long calm tail: how fast the dwell-gated ascent
  // returns to home after sustained pressure.
  const serve::ArrivalTrace recovery = serve::ArrivalTrace::oscillating(
      /*periods=*/1, 2 * per_phase, /*burst=*/400, /*lull=*/2000,
      /*seed=*/13);

  const auto three = [&] {
    return ladder_of(
        {mode(1600, "protected"), primary, mode(640, "int8")}, 1);
  };
  const auto run_ladder = [&](const std::string& name,
                              const serve::ArrivalTrace& trace,
                              serve::ServingLadder l) {
    const serve::FleetStats s = run(name, trace, std::move(l), 32, 4000, {});
    const serve::TenantStats& t = s.tenants[0];
    std::printf("  %-13s %6lld within deadline, %lld shed, "
                "%lld rung moves\n",
                "", t.completed - t.deadline_misses, t.shed_deadline,
                s.models[0].rung_transitions);
    return s;
  };

  const serve::FleetStats s_shed =
      run_ladder("over-shed", osc, ladder_of({primary}, 0));
  const serve::FleetStats s_pair =
      run_ladder("over-binary", osc, ladder_of({fallback, primary}, 1));
  const serve::FleetStats s_ladd = run_ladder("over-ladder", osc, three());
  const serve::FleetStats s_recv =
      run_ladder("burst-recover", recovery, three());

  const auto within = [](const serve::FleetStats& s) {
    return s.tenants[0].completed - s.tenants[0].deadline_misses;
  };
  std::printf(
      "\nladder delta: %+lld within-deadline vs shed-everything, "
      "%+lld vs binary pair; recovery run ended after %lld rung moves\n",
      within(s_ladd) - within(s_shed), within(s_ladd) - within(s_pair),
      s_recv.models[0].rung_transitions);

  bench::write_serve_json(recs, "BENCH_serve.json");
  bool ok = true;
  for (const serve::FleetStats* s :
       {&h, &b, &s_fb, &s_shed, &s_pair, &s_ladd, &s_recv}) {
    ok = ok && s->accounted();
  }
  // The burst must be absorbed (retried or downgraded, never failed), and
  // the whole point of the ladder: degraded-rung service beats shedding
  // everything the primary cannot absorb.
  ok = ok && bt.failed == 0 && b.retries > 0 &&
       within(s_ladd) > within(s_shed);
  // Resilience floor (virtual time, so exact run to run): while a third of
  // the trace is struck, at least 70% of all requests are still served and
  // the p99 stays within 200 home service times. A change to retry,
  // downgrade or quarantine that gives up more than that fails here.
  ok = ok && 10 * bt.completed >= 7 * bt.submitted &&
       bt.latency.p99() <= 200 * primary.service_cycles;
  return ok ? 0 : 1;
}
