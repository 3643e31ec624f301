// Pure helpers of griffin_perf.cpp, kept free of the
// system's headers so perf_helpers_test.cpp can pin them down in isolation:
//   * which tail percentile a sample count supports (>= 10 samples beyond);
//   * growing-backlog detection over an open-loop run's queue waits;
//   * the capacity search over a fixed ladder of offered rates;
//   * metric-name validation and the one-line JSON result.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// the percentile is the ceil(p/100 * n)-th smallest, so n minus that rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  // The epsilon keeps exact products (99.9% of 10000) from rounding up.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The highest of the reported percentiles (50, 90, 95, 99, 99.9) that has
/// at least `min_beyond` samples beyond it; nullopt when not even the
/// median does. A tail figure is only reported where it is this well fed.
inline std::optional<double> tail_percentile(std::size_t n,
                                             std::size_t min_beyond = 10) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

/// A queue whose backlog grows has waits that trend upward over the run;
/// a stable one fluctuates around a level. Fits the least-squares slope of
/// wait against arrival index and calls the backlog growing when the
/// fitted rise over the whole run exceeds half the latency limit.
inline bool growing_backlog(std::span<const double> waits_ms,
                            double limit_ms) {
  const std::size_t n = waits_ms.size();
  if (n < 2) return false;
  const double mean_x = static_cast<double>(n - 1) / 2.0;
  double mean_y = 0.0;
  for (const double w : waits_ms) mean_y += w;
  mean_y /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    sxy += dx * (waits_ms[i] - mean_y);
    sxx += dx * dx;
  }
  const double rise = sxy / sxx * static_cast<double>(n - 1);
  return rise > 0.5 * limit_ms;
}

/// One probed rung of the capacity ladder, with the queueing it showed.
struct RungResult {
  double rate_qps = 0.0;
  double p95_ms = 0.0;
  bool backlog = false;
  double wait_p50_ms = 0.0;  ///< queue wait: response - service
  double wait_p95_ms = 0.0;
  double max_queue_depth = 0.0;
  bool passes(double limit_ms) const { return !backlog && p95_ms <= limit_ms; }
};

struct LadderOutcome {
  /// Index into the ladder of the highest passing rung; nullopt when even
  /// the lowest rung fails.
  std::optional<std::size_t> best;
  std::vector<RungResult> probed;  ///< in probe order
  double capacity_qps(std::span<const double> ladder) const {
    return best ? ladder[*best] : 0.0;
  }
};

/// Binary search for the highest rung of an ascending `ladder` whose probe
/// passes `limit_ms`, assuming passing is monotone in the offered rate
/// (more load never lowers the tail). Probes O(log n) rungs.
inline LadderOutcome capacity_search(
    std::span<const double> ladder, double limit_ms,
    const std::function<RungResult(double)>& probe) {
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    if (!(ladder[i] > ladder[i - 1])) {
      throw std::invalid_argument("capacity ladder must ascend");
    }
  }
  LadderOutcome out;
  std::size_t lo = 0;              // first rung not known to pass
  std::size_t hi = ladder.size();  // first rung known to fail
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    RungResult r = probe(ladder[mid]);
    r.rate_qps = ladder[mid];
    out.probed.push_back(r);
    if (r.passes(limit_ms)) {
      out.best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return out;
}

/// The benchmark contract's name rule: 1-64 characters of [A-Za-z0-9_.-],
/// starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units: 1-16 characters of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Formats a double with every significant digit (round-trips exactly).
inline std::string full_digits(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Named metrics in insertion order; add() rejects malformed names, units,
/// duplicates and non-finite values, so a bad metric fails the run instead
/// of producing a result line the contract refuses.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void add(std::string name, double value, std::string unit) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument("bad metric name: " + name);
    }
    if (!valid_unit(unit)) throw std::invalid_argument("bad unit: " + unit);
    if (!std::isfinite(value)) {
      throw std::invalid_argument("non-finite metric: " + name);
    }
    for (const auto& m : metrics_) {
      if (m.name == name) {
        throw std::invalid_argument("duplicate metric: " + name);
      }
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             full_digits(metrics_[i].value) + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
