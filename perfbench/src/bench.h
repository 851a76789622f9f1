#pragma once
// Shared pieces of perfbench: command-line arguments, the span
// tracer, the metric report every workload fills in, and small statistics
// and deployment helpers. Everything here sits outside the hetacc
// libraries: layers are measured by timing calls into their public
// functions, never by instrumenting them.

#include <chrono>
#include <cstdint>
#include <map>
#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/pipeline.h"
#include "core/strategy.h"
#include "fpga/device.h"
#include "nn/network.h"
#include "nn/weights.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Whether a phase that started at `t0` should run one more whole pass of
/// `pass_ms`: the phase ends at the pass boundary nearest `seconds`.
[[nodiscard]] inline bool another_pass(Clock::time_point t0, double pass_ms,
                                       double seconds) {
  return ms_since(t0) + pass_ms / 2 < seconds * 1e3;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test of the correctness gates: perturbs one checked output so the
  /// run must report correct=false and exit non-zero.
  bool corrupt = false;
  std::string out_dir = ".bench_build/perfbench-out";
  /// nproc: the load generator's thread ceiling.
  int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
};

// ---------------------------------------------------------------- CPUs

/// The CPUs this process may run on (its affinity mask at start).
///
/// Single-threaded host-time work is spread evenly over them: on a shared
/// 4-vCPU Xeon virtual machine (Firecracker) the same solve ran 1.7x slower
/// on one vCPU than on another, consistently, so a thread left where the
/// scheduler put it would make a whole run fast or slow by placement alone.
[[nodiscard]] const std::vector<int>& cpus();
/// Pins the calling thread to cpus()[k % cpus().size()]; k < 0 restores the
/// original mask. New threads inherit the mask, so unpin before starting
/// any. Does nothing where the mask cannot be set.
void pin_cpu(long long k);

/// Host ms of operations, grouped by the CPU each was pinned to (one group
/// when unpinned).
struct CpuTimes {
  std::vector<std::vector<double>> by_cpu =
      std::vector<std::vector<double>>(cpus().size());

  void add(long long k, double ms) {
    by_cpu[static_cast<std::size_t>(k) % by_cpu.size()].push_back(ms);
  }
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::vector<double> all() const;
  /// Mean over CPUs of each CPU's median: the median operation time of an
  /// average CPU, which does not depend on how the operations landed.
  [[nodiscard]] double median_ms() const;
};

/// Set-up repetitions: the smallest multiple of cpus().size() that is at
/// least `at_least`, so that repetition i can run on CPU i and every CPU
/// takes an equal share. Every workload runs the first half before its main
/// phase and the second half after it, so setup_s (their median) samples
/// the host at both ends of the run.
[[nodiscard]] int setup_reps(int at_least);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are opened and closed on the benchmark's
/// own thread around calls into the libraries; each carries its parent and
/// the operation (image, request trace, solve) it belongs to. Disabled, it
/// records nothing and a Span costs one branch.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    long long op = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(std::string name, long long op);
  void close(int id);
  /// Records a count at a layer boundary (summed per name).
  void count(const std::string& name, double v);

  /// Self time of every closed span, grouped by name: duration minus the
  /// part of it covered by child spans.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ms() const;
  /// Chrome trace_event JSON: one complete event per span, plus the counts.
  [[nodiscard]] std::string json() const;

 private:
  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

Tracer& tracer();

class Span {
 public:
  explicit Span(std::string name, long long op = -1)
      : id_(tracer().enabled() ? tracer().open(std::move(name), op) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: every metric it computed (end-to-end and
/// per-layer alike; run.py selects the set BENCHMARK.json asks for), the
/// operation counts, and the correctness verdict.
struct Report {
  std::map<std::string, Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::vector<std::string> lines;  ///< human-readable notes, printed first

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A correctness gate: a false `ok` marks the run incorrect.
  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

// ---------------------------------------------------------------- stats

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The tail the choosing-metrics rule asks for: the highest percentile that
/// still has at least ten samples beyond it. Below 22 samples that rank
/// would sit at or under the median, so the tail is then the maximum.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  long long n = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Publishes a main phase's host-time end-to-end metrics: `ops_per_s` as
/// given, op_ms_p50 the CPU-balanced median of `op_ms`, and op_ms_tail the
/// tail() of all of them, noting that percentile and the count.
void report_host_time(Report& r, double ops_per_s, const CpuTimes& op_ms);

[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::uint32_t mix_seed(std::uint64_t seed, std::uint64_t k);

/// Publishes the median of each span name's self time as `<metric>` in ms,
/// when that span was recorded.
void span_metric(Report& r, const std::string& span,
                 const std::string& metric);

// ---------------------------------------------------------------- deploy

/// Per-layer engine choices of a strategy, index-aligned with layers
/// [1, net.size()), on the float datapath.
[[nodiscard]] std::vector<hetacc::arch::LayerChoice> choices_of(
    const hetacc::core::Strategy& s);

/// Minimal feature-map transfer any feasible partition achieves (a DP over
/// the fusion table), plus one discretisation unit of slack per layer so
/// the optimizer's per-group round-up still admits it.
[[nodiscard]] long long minimal_transfer_budget(
    const hetacc::nn::Network& accel, const hetacc::fpga::EngineModel& model,
    long long unit_bytes);

/// Modeled latency of a strategy as the row-level schedule simulation sees
/// it, and the analytic model's worst disagreement with it.
struct ScheduleCheck {
  long long schedule_cycles = 0;   ///< sum of group makespans
  double worst_err_pct = 0.0;      ///< max |analytic / schedule - 1| * 100
  long long groups = 0;
  long long groups_within_10pct = 0;
  std::vector<double> ratios;      ///< schedule / analytic, per group
  std::vector<std::vector<long long>> layer_finish;  ///< per group
};
[[nodiscard]] ScheduleCheck check_schedule(const hetacc::nn::Network& net,
                                           const hetacc::core::Strategy& s,
                                           const hetacc::fpga::Device& dev,
                                           long long op = -1);

/// L-inf distance as a percentage of the reference output's range.
[[nodiscard]] double linf_pct(const hetacc::nn::Tensor& got,
                              const hetacc::nn::Tensor& ref);

/// Writes `text` to `<out_dir>/<name>`, creating the directory.
void write_artifact(const Args& a, const std::string& name,
                    const std::string& text);

// ---------------------------------------------------------------- workloads

void run_alexnet_stream(const Args& a, Report& r);
void run_vgg_head_batch(const Args& a, Report& r);
void run_fleet_mix(const Args& a, Report& r);
void run_dse_sweep(const Args& a, Report& r);

}  // namespace perfbench
