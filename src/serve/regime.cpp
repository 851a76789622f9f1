#include "serve/regime.h"

#include <algorithm>
#include <cmath>

namespace hetacc::serve {

std::string_view to_string(RungMove m) {
  switch (m) {
    case RungMove::kLoadDescend: return "load";
    case RungMove::kLoadAscend: return "load-recover";
  }
  return "?";
}

RegimeController::RegimeController(std::size_t rungs, std::size_t home,
                                   std::size_t queue_capacity,
                                   RegimeConfig cfg)
    : home_(static_cast<int>(home)),
      deepest_(static_cast<int>(rungs) - 1),
      cfg_(cfg),
      rung_(static_cast<int>(home)),
      miss_ring_(static_cast<std::size_t>(std::max(cfg.miss_window, 1)),
                 false) {
  // A request out of retries degrades onto the rung just above home (the
  // --protect re-optimization). A home-rung-0 ladder has no conservative
  // rung above it, so the first deeper rung stands in; a ladder of one rung
  // degrades onto itself (shed-only operation).
  if (home_ > 0) {
    conservative_ = home_ - 1;
  } else {
    conservative_ = std::min(home_ + 1, deepest_);
  }
  const double cap = static_cast<double>(queue_capacity);
  descend_depth_ = static_cast<std::size_t>(
      std::max(1.0, std::ceil(cap * cfg_.descend_queue_frac)));
  ascend_depth_ = static_cast<std::size_t>(
      std::max(0.0, std::floor(cap * cfg_.ascend_queue_frac)));
}

void RegimeController::move_to(long long now, int to, RungMove reason) {
  log_.push_back({now, rung_, to, reason});
  rung_ = to;
}

void RegimeController::observe_queue(long long now, std::size_t depth) {
  last_depth_ = depth;
  step(now);
}

void RegimeController::observe_completion(long long now,
                                          bool missed_deadline) {
  if (miss_filled_ == miss_ring_.size()) {
    if (miss_ring_[miss_next_]) --misses_in_window_;
  } else {
    ++miss_filled_;
  }
  miss_ring_[miss_next_] = missed_deadline;
  if (missed_deadline) ++misses_in_window_;
  miss_next_ = (miss_next_ + 1) % miss_ring_.size();
  step(now);
}

void RegimeController::step(long long now) {
  const bool pressure = last_depth_ >= descend_depth_ ||
                        misses_in_window_ >= cfg_.descend_miss_count;
  const bool calm = last_depth_ <= ascend_depth_ &&
                    misses_in_window_ <= cfg_.ascend_miss_count;
  if (pressure) {
    calm_streak_ = 0;
    // Fast descent — but only onto rungs that actually buy throughput
    // (deeper-than-home rungs are strictly faster by construction). On a
    // [fallback, primary] pair home is the deepest rung, so load pressure
    // never moves anything.
    if (rung_ < deepest_ &&
        now - last_move_cycle_ >= cfg_.descend_dwell_cycles) {
      last_move_cycle_ = now;
      move_to(now, rung_ + 1, RungMove::kLoadDescend);
    }
    return;
  }
  if (!calm) {
    calm_streak_ = 0;
    return;
  }
  // Slow, dwell-gated ascent: one rung at a time toward home, each step
  // requiring a fresh calm streak, so recovery cannot flap against a load
  // oscillation shorter than the ascend dwell.
  ++calm_streak_;
  if (rung_ > home_ && calm_streak_ >= cfg_.ascend_calm_streak &&
      now - last_move_cycle_ >= cfg_.ascend_dwell_cycles) {
    last_move_cycle_ = now;
    calm_streak_ = 0;
    move_to(now, rung_ - 1, RungMove::kLoadAscend);
  }
}

}  // namespace hetacc::serve
