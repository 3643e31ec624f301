// Shared main() for the google-benchmark microbenches: console output as
// usual, plus every run mirrored into BENCH_<name>.json (bench_common.h's
// write_bench_json), so host-time trajectories can be compared across
// commits.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace griffin::bench {

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      auto row = Json::object();
      row["name"] = r.benchmark_name();
      row["real_time_ns"] = r.GetAdjustedRealTime();
      row["cpu_time_ns"] = r.GetAdjustedCPUTime();
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) {
        row["items_per_second"] = static_cast<double>(it->second);
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  Json take_rows() { return std::move(rows_); }

 private:
  Json rows_ = Json::array();
};

/// main() of a microbench binary: runs the registered benchmarks and writes
/// BENCH_<name>.json with one row per run.
inline int run_microbench(const char* name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  auto root = Json::object();
  root["bench"] = name;
  root["runs"] = reporter.take_rows();
  write_bench_json(name, root);
  return 0;
}

}  // namespace griffin::bench
