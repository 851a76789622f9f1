#include "serve/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hetacc::serve {

void LatencyHistogram::record(long long cycles) {
  samples_.push_back(cycles < 0 ? 0 : cycles);
  sorted_ = samples_.size() <= 1;
}

void LatencyHistogram::sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

long long LatencyHistogram::percentile(double p) const {
  if (samples_.empty()) return 0;
  sort();
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Nearest-rank: smallest sample with at least p% of the mass at or below.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

long long LatencyHistogram::max() const {
  if (samples_.empty()) return 0;
  sort();
  return samples_.back();
}

double LatencyHistogram::mean() const {
  if (samples_.empty()) return 0.0;
  long double sum = 0.0;
  for (const long long s : samples_) sum += static_cast<long double>(s);
  return static_cast<double>(sum / static_cast<long double>(samples_.size()));
}

std::string LatencyHistogram::summary() const {
  sort();
  std::ostringstream os;
  std::size_t i = 0;
  while (i < samples_.size()) {
    // Bucket [2^k, 2^(k+1)) holding samples_[i].
    long long lo = 1;
    while (lo * 2 <= std::max<long long>(samples_[i], 1)) lo *= 2;
    if (samples_[i] == 0) lo = 0;
    const long long hi = lo == 0 ? 1 : lo * 2;
    std::size_t n = 0;
    while (i < samples_.size() && samples_[i] >= lo && samples_[i] < hi) {
      ++n;
      ++i;
    }
    os << "    [" << lo << ", " << hi << "): " << n << "\n";
  }
  return os.str();
}

bool LatencyHistogram::operator==(const LatencyHistogram& o) const {
  sort();
  o.sort();
  return samples_ == o.samples_;
}

}  // namespace hetacc::serve
