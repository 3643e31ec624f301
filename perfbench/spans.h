// In-memory span recorder of the traced run. Spans are taken from the
// benchmark's own code around its calls into each layer (set-up, the
// Planner/StepExecutor loop, the tenancy device run); each has a name, the
// layer it belongs to, host start/end, a parent and a query id. They stay in
// memory and are written once, at exit, as Chrome trace-event JSON with one
// track (tid) per layer — load the file in chrome://tracing or Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kNone = -1;

  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNone;
    std::int64_t query = kNone;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  std::int64_t begin(std::string name, std::string layer,
                     std::int64_t parent = kNone, std::int64_t query = kNone) {
    spans_.push_back({std::move(name), std::move(layer), now_ns(), 0, parent,
                      query});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Closes span `id`; returns its host duration in seconds.
  double end(std::int64_t id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Renames an open span (a step's kind and placement are only known
  /// once it has run).
  void rename(std::int64_t id, std::string name) {
    spans_.at(static_cast<std::size_t>(id)).name = std::move(name);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: complete ("X") events, one tid per layer in
  /// order of first appearance, with thread_name metadata naming it.
  void write_chrome_trace(const std::string& path) const {
    std::vector<std::string> layers;
    const auto tid_of = [&layers](const std::string& layer) {
      for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i] == layer) return i + 1;
      }
      layers.push_back(layer);
      return layers.size();
    };
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::size_t tid = tid_of(s.layer);
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %lld, \"query\": "
                    "%lld}}",
                    first ? "" : ",\n", s.name.c_str(), s.layer.c_str(), tid,
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.query));
      out += buf;
      first = false;
    }
    for (std::size_t i = 0; i < layers.size(); ++i) {
      out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": " +
             std::to_string(i + 1) + ", \"args\": {\"name\": \"" + layers[i] +
             "\"}}";
    }
    out += "\n]}\n";
    std::ofstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("cannot write trace file " + path);
    f << out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
