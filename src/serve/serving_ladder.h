#pragma once
// The degradation ladder a served model walks (DESIGN.md §14): an ordered
// list of serving modes, rung 0 the most conservative, `home` the preferred
// operating point, deeper rungs strictly faster.
//
//   rung 0        — most conservative (slowest; typically the `--protect`
//                   re-optimization an operator pre-computes and ships)
//   rung `home`   — the optimizer's latency-optimal primary strategy
//   deeper rungs  — strictly faster Pareto points (int8 / conventional-i8):
//                   degraded accuracy traded for throughput, deliberately
//
// toolflow::build_serving_ladder emits this shape; FleetServer validates
// hand-built ladders.

#include <string>
#include <vector>

#include "arch/pipeline.h"
#include "fault/protect.h"

namespace hetacc::serve {

/// One strategy a model can serve from: per-layer algorithm choices for
/// the functional pipeline plus the modeled per-request service time (the
/// strategy's end-to-end latency as priced by the cost layer).
struct ServingMode {
  std::vector<arch::LayerChoice> choices;
  long long service_cycles = 0;
  /// Hardening installed when this mode's pipeline runs inside a pipeline
  /// fault burst (home rung only) — the detectors that absorb recoverable
  /// SEUs.
  fault::ProtectionConfig protect = fault::ProtectionConfig::all_on();
  /// Display label for rung tables and the transition timeline.
  std::string label;
};

/// The degradation ladder: rungs ordered most-conservative first, `home`
/// the preferred operating point. Rungs deeper than home must be strictly
/// faster (service_cycles strictly decreasing) — that is what makes load
/// descent meaningful.
struct ServingLadder {
  std::vector<ServingMode> rungs;
  std::size_t home = 0;
};

}  // namespace hetacc::serve
