#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/dp_optimizer.h"
#include "serve/stats.h"

namespace perfbench {

using namespace hetacc;

// ---------------------------------------------------------------- CPUs

namespace {

const cpu_set_t& start_mask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof m, &m) != 0) CPU_ZERO(&m);
    return m;
  }();
  return mask;
}

}  // namespace

const std::vector<int>& cpus() {
  static const std::vector<int> list = [] {
    std::vector<int> v;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &start_mask())) v.push_back(c);
    }
    if (v.empty()) v.push_back(-1);  // mask unknown: never pin
    return v;
  }();
  return list;
}

void pin_cpu(long long k) {
  const std::vector<int>& c = cpus();
  if (c.front() < 0) return;
  if (k < 0) {
    (void)sched_setaffinity(0, sizeof(cpu_set_t), &start_mask());
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(c[static_cast<std::size_t>(k) % c.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

bool CpuTimes::empty() const {
  for (const auto& v : by_cpu) {
    if (!v.empty()) return false;
  }
  return true;
}

std::vector<double> CpuTimes::all() const {
  std::vector<double> out;
  for (const auto& v : by_cpu) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double CpuTimes::median_ms() const {
  double sum = 0.0;
  int n = 0;
  for (const auto& v : by_cpu) {
    if (v.empty()) continue;
    sum += median(v);
    ++n;
  }
  return n ? sum / n : 0.0;
}

int setup_reps(int at_least) {
  const int n = static_cast<int>(cpus().size());
  return (at_least + n - 1) / n * n;
}

// ---------------------------------------------------------------- tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(std::string name, long long op) {
  Record rec;
  rec.name = std::move(name);
  rec.start_ms = ms_since(t0_);
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.op = op < 0 && rec.parent >= 0 ? spans_[rec.parent].op : op;
  spans_.push_back(std::move(rec));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[id].end_ms = ms_since(t0_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::count(const std::string& name, double v) {
  if (enabled_) counts_[name] += v;
}

std::map<std::string, std::vector<double>> Tracer::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Record& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    out[s.name].push_back(s.end_ms - s.start_ms - child[i]);
  }
  return out;
}

std::string Tracer::json() const {
  std::ostringstream f;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}",
                  s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                  s.op);
    f << (i ? ",\n" : "") << "{\"name\":\"" << s.name << buf;
  }
  f << "\n],\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : counts_) {
    f << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  f << "}}\n";
  return f.str();
}

// ---------------------------------------------------------------- report

void Report::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  note("GATE FAILED: " + what);
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = static_cast<long long>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Ten samples beyond the rank must leave it above the median; with fewer
  // than 22 samples that is impossible and the tail is the maximum.
  const std::size_t idx = v.size() >= 22 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

void report_host_time(Report& r, double ops_per_s, const CpuTimes& op_ms) {
  const Tail t = tail(op_ms.all());
  r.set("ops_per_s", ops_per_s, "1/s");
  r.set("op_ms_p50", op_ms.median_ms(), "ms");
  r.set("op_ms_tail", t.value, "ms");
  char buf[160];
  std::snprintf(buf, sizeof buf, "op_ms_tail is p%.2f of %lld operation(s)",
                t.pct, t.n);
  r.note(buf);
  std::string per_cpu = "op_ms median per CPU:";
  int pinned = 0;
  for (std::size_t c = 0; c < op_ms.by_cpu.size(); ++c) {
    if (op_ms.by_cpu[c].empty()) continue;
    std::snprintf(buf, sizeof buf, " cpu%d %.4g (%zu)", cpus()[c],
                  median(op_ms.by_cpu[c]), op_ms.by_cpu[c].size());
    per_cpu += buf;
    ++pinned;
  }
  if (pinned > 1) r.note(per_cpu);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint32_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  return static_cast<std::uint32_t>(
      serve::digest_mix64(serve::digest_mix64(seed) ^ k) >> 32);
}

void span_metric(Report& r, const std::string& span,
                 const std::string& metric) {
  const auto all = tracer().self_ms();
  const auto it = all.find(span);
  if (it != all.end()) r.set(metric, median(it->second), "ms");
}

// ---------------------------------------------------------------- deploy

std::vector<arch::LayerChoice> choices_of(const core::Strategy& s) {
  std::vector<arch::LayerChoice> ch;
  for (const auto& g : s.groups) {
    for (const auto& ipl : g.impls) {
      ch.push_back({ipl.cfg.algo, ipl.cfg.wino_m, {}});
    }
  }
  return ch;
}

long long minimal_transfer_budget(const nn::Network& accel,
                                  const fpga::EngineModel& model,
                                  long long unit_bytes) {
  const core::FusionTable ft = [&] {
    Span s("core.FusionTable");
    return core::FusionTable(accel, model, core::BnbOptions{});
  }();
  constexpr long long kInf = std::numeric_limits<long long>::max() / 4;
  const std::size_t n = ft.count();
  std::vector<long long> best(n + 1, kInf);
  best[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (best[i] >= kInf || !ft.feasible(i, j - 1)) continue;
      best[j] = std::min(best[j], best[i] + ft.min_transfer(i, j - 1));
    }
  }
  if (best[n] >= kInf) {
    throw std::runtime_error("no feasible partition of " + accel.name());
  }
  return best[n] + static_cast<long long>(accel.size()) * unit_bytes;
}

ScheduleCheck check_schedule(const nn::Network& net, const core::Strategy& s,
                             const fpga::Device& dev, long long op) {
  ScheduleCheck c;
  for (const auto& g : s.groups) {
    const arch::ScheduleResult sched = [&] {
      Span sp("arch.simulate_schedule", op);
      return arch::simulate_schedule(net, g.first, g.last, g.impls, dev);
    }();
    const double ratio = static_cast<double>(sched.makespan_cycles) /
                         static_cast<double>(g.timing.latency_cycles);
    const double err =
        100.0 * std::abs(static_cast<double>(g.timing.latency_cycles) /
                             static_cast<double>(sched.makespan_cycles) -
                         1.0);
    c.schedule_cycles += sched.makespan_cycles;
    c.worst_err_pct = std::max(c.worst_err_pct, err);
    c.groups += 1;
    c.groups_within_10pct += err <= 10.0 ? 1 : 0;
    c.ratios.push_back(ratio);
    c.layer_finish.push_back(sched.layer_finish);
  }
  return c;
}

double linf_pct(const nn::Tensor& got, const nn::Tensor& ref) {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  for (float v : ref.vec()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi > lo ? static_cast<double>(hi - lo) : 1.0;
  const float d = got.max_abs_diff(ref);
  if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
  return 100.0 * static_cast<double>(d) / range;
}

void write_artifact(const Args& a, const std::string& name,
                    const std::string& text) {
  std::filesystem::create_directories(a.out_dir);
  std::ofstream(a.out_dir + "/" + name) << text;
}

}  // namespace perfbench
