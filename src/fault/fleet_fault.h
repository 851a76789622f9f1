#pragma once
// Fleet-scale fault domains: a seeded, *virtual-time* plan of replica- and
// cache-level fault events for the serving fleet (DESIGN.md §16). Where
// FaultPlan (fault.h) strikes inside one pipeline — SEUs, FIFO corruption,
// engine stalls — FleetFaultPlan strikes whole replicas and the shared
// prepack cache:
//
//   kWedge   the replica stops completing work: its in-flight batch never
//            finishes and it accepts nothing new. Detected by the fleet's
//            watchdog (a batch overdue past watchdog_factor x its nominal
//            service time), exactly like the DATAFLOW watchdog names a
//            wedged FIFO stage.
//   kCrash   the replica dies instantly: in-flight work is lost on the spot
//            and detection is immediate (the virtual machine-check).
//   kSlow    a service-time multiplier (a sick-but-alive replica: thermal
//            throttle, failing DDR lane). Invisible to any single request;
//            detected statistically by the rolling deadline-miss window.
//   kCorruptBundle  a bit flip in the shared prepack cache's resident copy
//            of one (model, rung) bundle. Detected by the bundle CRC on the
//            next lease and scrubbed (re-derived) privately so peers are
//            never invalidated.
//   kPipelineBurst  a window of virtual time during which batches dispatched
//            on the model's home rung run on a private twin pipeline with a
//            pipeline-level FaultPlan installed (a wedged FIFO, SEUs). The
//            replica stays alive; its executions fail, so the fleet retries
//            them with backoff, downgrades requests out of retries onto the
//            conservative rung, and quarantines replicas that keep failing.
//
// Determinism contract: a plan is pure data — every event carries the exact
// virtual cycle it strikes at, and the fleet's single dispatcher applies it
// as just another event source in its discrete-event loop. A campaign with
// the same (plan, seed, traces, config) reproduces byte-for-byte for any
// worker-thread count; the seed only jitters the *construction* of canned
// campaigns, never their application.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"

namespace hetacc::fault {

enum class FleetFaultKind : std::uint8_t {
  kWedge,
  kCrash,
  kSlow,
  kCorruptBundle,
  kPipelineBurst,
};

[[nodiscard]] std::string_view to_string(FleetFaultKind k);

/// One fleet-level fault event. `replica` is the dense per-model replica id
/// (FleetServer spawns ids 0, 1, ... in spawn order); `rung` is only read by
/// kCorruptBundle; `burst_until` and `burst_plan` only by kPipelineBurst,
/// which strikes every replica of `model`. Events targeting a replica that
/// does not exist, or is not currently healthy (quarantined, in probation,
/// spinning up, retired), are no-ops — the plan stays valid for any
/// autoscale trajectory.
struct FleetFaultEvent {
  long long cycle = 0;
  FleetFaultKind kind = FleetFaultKind::kWedge;
  std::size_t model = 0;
  int replica = 0;
  int rung = -1;              ///< kCorruptBundle: rung index; -1 = the
                              ///< model's home rung (fleet resolves it)
  double slow_factor = 3.0;   ///< kSlow: service-time multiplier (> 1)
  long long slow_duration = 0;  ///< kSlow: cycles of sickness; 0 = until
                                ///< quarantine clears it
  long long burst_until = 0;    ///< kPipelineBurst: window is [cycle, until)
  FaultPlan burst_plan;         ///< kPipelineBurst: installed on the twin

  [[nodiscard]] std::string describe() const;
};

/// The whole campaign: events sorted by (cycle, model, replica, kind) so the
/// dispatcher can consume them as a merged event stream.
struct FleetFaultPlan {
  std::uint64_t seed = 1;
  std::vector<FleetFaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Sorts events into the canonical application order.
  void normalize();
};

/// Deterministic canned campaigns for `hetacc --fleet-chaos PLAN[:SEED]` and
/// the CI soak. `spec` is a '+'-joined subset of {wedge, crash, slow,
/// corrupt} or "mix" (all four). Strike cycles are placed at seeded-jittered
/// multiples of `service_scale` (the fleet's largest home-rung service time)
/// so the same spec scales to any model mix; `models` and `replicas` bound
/// the targets. Throws hetacc::ParseError on an unknown token.
[[nodiscard]] FleetFaultPlan make_fleet_campaign(const std::string& spec,
                                                 std::uint64_t seed,
                                                 std::size_t models,
                                                 int replicas,
                                                 long long service_scale);

}  // namespace hetacc::fault
