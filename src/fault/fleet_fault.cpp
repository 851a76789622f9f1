#include "fault/fleet_fault.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace hetacc::fault {

namespace {

/// splitmix64 finalizer — the counter-hash primitive the whole fault layer
/// uses, so campaign construction is a pure function of (spec, seed).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Jitter in [lo, hi) hashed from (seed, salt) — strike cycles wobble with
/// the seed but the campaign shape (which faults, which targets) does not.
long long jitter(std::uint64_t seed, std::uint64_t salt, long long lo,
                 long long hi) {
  const std::uint64_t h = mix64(seed ^ mix64(salt));
  return lo + static_cast<long long>(
                  h % static_cast<std::uint64_t>(hi - lo > 0 ? hi - lo : 1));
}

}  // namespace

std::string_view to_string(FleetFaultKind k) {
  switch (k) {
    case FleetFaultKind::kWedge: return "wedge";
    case FleetFaultKind::kCrash: return "crash";
    case FleetFaultKind::kSlow: return "slow";
    case FleetFaultKind::kCorruptBundle: return "corrupt-bundle";
    case FleetFaultKind::kPipelineBurst: return "pipeline-burst";
  }
  return "?";
}

std::string FleetFaultEvent::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " model " << model;
  if (kind == FleetFaultKind::kCorruptBundle) {
    os << " rung " << rung;
  } else if (kind == FleetFaultKind::kPipelineBurst) {
    os << " home rung";
  } else {
    os << " replica " << replica;
  }
  os << " @ cycle " << cycle;
  if (kind == FleetFaultKind::kSlow) {
    os << " (x" << slow_factor << ")";
  } else if (kind == FleetFaultKind::kPipelineBurst) {
    os << " until " << burst_until;
  }
  return os.str();
}

void FleetFaultPlan::normalize() {
  std::sort(events.begin(), events.end(),
            [](const FleetFaultEvent& a, const FleetFaultEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.model != b.model) return a.model < b.model;
              if (a.replica != b.replica) return a.replica < b.replica;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

FleetFaultPlan make_fleet_campaign(const std::string& spec, std::uint64_t seed,
                                   std::size_t models, int replicas,
                                   long long service_scale) {
  if (models == 0 || replicas < 1 || service_scale < 1) {
    throw ValidationError(
        "fleet campaign needs >= 1 model, >= 1 replica and a positive "
        "service scale");
  }
  bool wedge = false, crash = false, slow = false, corrupt = false;
  {
    std::istringstream is(spec);
    std::string tok;
    bool any = false;
    while (std::getline(is, tok, '+')) {
      if (tok.empty()) continue;
      any = true;
      if (tok == "wedge") {
        wedge = true;
      } else if (tok == "crash") {
        crash = true;
      } else if (tok == "slow") {
        slow = true;
      } else if (tok == "corrupt") {
        corrupt = true;
      } else if (tok == "mix") {
        wedge = crash = slow = corrupt = true;
      } else {
        throw ParseError("unknown fleet-chaos token '" + tok +
                         "' (want wedge|crash|slow|corrupt|mix, '+'-joined)");
      }
    }
    if (!any) {
      throw ParseError("empty fleet-chaos plan '" + spec + "'");
    }
  }

  // Strikes land early enough in the trace that recovery (quarantine,
  // respawn, probation, readmission) happens while load is still arriving —
  // that is what the acceptance greps assert. Targets spread across models
  // and replica slots so multi-model fleets exercise more than one domain.
  FleetFaultPlan plan;
  plan.seed = seed;
  const long long s = service_scale;
  if (corrupt) {
    FleetFaultEvent e;
    e.kind = FleetFaultKind::kCorruptBundle;
    e.cycle = 6 * s + jitter(seed, 0xC0, 0, 2 * s);
    e.model = 0;
    e.rung = -1;  // resolved to the model's home rung by the fleet
    plan.events.push_back(e);
  }
  if (slow) {
    FleetFaultEvent e;
    e.kind = FleetFaultKind::kSlow;
    e.cycle = 10 * s + jitter(seed, 0x51, 0, 2 * s);
    e.model = models > 2 ? 2 : 0;
    e.replica = replicas > 1 ? 1 : 0;
    e.slow_factor = 3.0;
    e.slow_duration = 0;  // sick until the health window quarantines it
    plan.events.push_back(e);
  }
  if (wedge) {
    FleetFaultEvent e;
    e.kind = FleetFaultKind::kWedge;
    e.cycle = 14 * s + jitter(seed, 0x3D, 0, 2 * s);
    e.model = 0;
    e.replica = 0;
    plan.events.push_back(e);
  }
  if (crash) {
    FleetFaultEvent e;
    e.kind = FleetFaultKind::kCrash;
    e.cycle = 22 * s + jitter(seed, 0xCA, 0, 2 * s);
    e.model = models > 1 ? 1 : 0;
    e.replica = replicas > 1 ? replicas - 1 : 0;
    plan.events.push_back(e);
  }
  plan.normalize();
  return plan;
}

}  // namespace hetacc::fault
