#pragma once
// Arrival traces for the serving runtime: a deterministic request stream
// (id, arrival cycle, input seed). Traces are value types: generate one
// synthetically from a seed, or load/save the CSV form (`hetacc --serve
// trace.csv`). Same traces + same fleet config ⇒ same FleetStats, always.
// Faults are not part of a trace: they arrive as a fault::FleetFaultPlan.

#include <cstdint>
#include <string>
#include <vector>

namespace hetacc::serve {

struct TraceRequest {
  std::uint64_t id = 0;
  long long arrival_cycle = 0;
  /// Seed for the request's deterministic input tensor (what the "user"
  /// sent). Distinct seeds make the response digest sensitive to request
  /// identity, not just request count.
  std::uint32_t input_seed = 0;
};

struct ArrivalTrace {
  std::vector<TraceRequest> requests;

  /// Deterministic synthetic trace: `n` requests with hash-jittered
  /// inter-arrival gaps around `mean_interarrival_cycles` (uniform in
  /// [mean/2, 3*mean/2)), input seeds derived from `seed`. A `surge_factor`
  /// > 1 compresses the gaps by that factor over the middle third of the
  /// trace, producing the overload segment the admission-control and
  /// load-shedding paths need.
  [[nodiscard]] static ArrivalTrace synthetic(std::size_t n,
                                              long long mean_interarrival_cycles,
                                              std::uint64_t seed,
                                              double surge_factor = 1.0);

  /// Deterministic square-wave load: `periods` alternating burst/lull
  /// phases of `per_phase` requests each. Burst phases use hash-jittered
  /// gaps around `burst_interarrival_cycles`, lull phases around
  /// `lull_interarrival_cycles` (lull should be the larger). This is the
  /// oscillating-overload stimulus the degradation-ladder hysteresis tests
  /// and the CI soak drive: sustained pressure, then sustained calm,
  /// repeated — a controller without dwell gating flaps on it.
  [[nodiscard]] static ArrivalTrace oscillating(
      std::size_t periods, std::size_t per_phase,
      long long burst_interarrival_cycles,
      long long lull_interarrival_cycles, std::uint64_t seed);

  /// CSV form: header `id,arrival_cycle,input_seed`, one row per request.
  [[nodiscard]] std::string to_csv() const;
  /// Inverse of to_csv. Throws hetacc::ParseError with a 1-based line
  /// number on malformed rows, non-monotonic arrivals, or duplicate ids.
  [[nodiscard]] static ArrivalTrace from_csv(const std::string& csv);

  [[nodiscard]] long long last_arrival() const {
    return requests.empty() ? 0 : requests.back().arrival_cycle;
  }
};

}  // namespace hetacc::serve
