#pragma once
// Circuit breaker behind the fleet's per-replica quarantine (fleet.h,
// HealthConfig). Classic three-state machine, driven entirely by the
// dispatcher in virtual time (single threaded, so no locking):
//
//   closed ──(force_open: the health layer isolated the replica)──▶
//   open   ──(the cooldown — the respawn spin-up — elapses)──▶ half-open
//   half-open ──(probe_successes probes succeed)──▶ closed
//             ──(force_open again: the probe failed)──▶ open
//
// The health layer scores the replica itself and knows the repair time up
// front, so the breaker keeps no failure counters of its own. Every
// transition is logged with its virtual cycle so tests can assert the exact
// recovery sequence.

#include <cstdint>
#include <string_view>
#include <vector>

namespace hetacc::serve {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState s);

struct BreakerConfig {
  /// Successful half-open probes required to close again.
  int probe_successes = 2;
};

struct BreakerTransition {
  long long cycle = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig cfg = {}) : cfg_(cfg) {}

  /// Current state at virtual cycle `now`. Reading the state performs the
  /// open -> half-open transition once the cooldown has elapsed.
  [[nodiscard]] BreakerState state(long long now);

  /// Half-open probe admission: true grants the (single) probe slot, and
  /// the caller reports a successful probe via record_success and a failed
  /// one by calling force_open again.
  [[nodiscard]] bool try_acquire_probe(long long now);

  /// Trips the breaker immediately with an explicit cooldown. The fleet's
  /// quarantine machine calls this with the replica's respawn spin-up as the
  /// cooldown, then walks the ordinary open -> half-open -> closed probation
  /// sequence.
  void force_open(long long now, long long cooldown_cycles);

  /// A half-open probe succeeded.
  void record_success(long long now);

  [[nodiscard]] const std::vector<BreakerTransition>& transitions() const {
    return log_;
  }
  [[nodiscard]] long long opens() const { return opens_; }
  [[nodiscard]] long long closes() const { return closes_; }

 private:
  void transition(long long now, BreakerState to);

  BreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  long long open_until_ = 0;
  int probe_wins_ = 0;
  bool probe_in_flight_ = false;
  long long opens_ = 0;
  long long closes_ = 0;
  std::vector<BreakerTransition> log_;
};

}  // namespace hetacc::serve
