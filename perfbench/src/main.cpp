// perfbench: one benchmark run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--threads N] [--corrupt]
//
// Prints human-readable notes, then one line
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// carrying every metric the run computed. Exits 1 when a correctness gate
// failed, 2 on bad arguments. --threads overrides nproc (the thread ceiling
// of vgg-head-batch and fleet-mix), to check that the deterministic metrics
// do not depend on it; perfbench/run.py never passes it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s wants a value\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--out") {
      a.out_dir = value();
    } else if (k == "--threads") {
      a.threads = std::max(1, std::stoi(value()));
    } else if (k == "--corrupt") {
      a.corrupt = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }

  Report r;
  try {
    if (a.workload == "alexnet-stream") {
      run_alexnet_stream(a, r);
    } else if (a.workload == "vgg-head-batch") {
      run_vgg_head_batch(a, r);
    } else if (a.workload == "fleet-mix") {
      run_fleet_mix(a, r);
    } else if (a.workload == "dse-sweep") {
      run_dse_sweep(a, r);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (a.trace) {
    write_artifact(a,
                   "trace-" + a.workload + "-seed" + std::to_string(a.seed) +
                       ".json",
                   tracer().json());
  }
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-44s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %lld, "
              "\"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
