// In-memory span recorder for the traced benchmark run.
//
// Spans are placed by the benchmark's own files around its calls into the
// simulator's public API; nothing under src/ is instrumented. A disabled
// Tracer reads no clock and records nothing, so untraced runs (the ones
// the end-to-end metrics come from) pay one predicted branch per site.
//
// Self time of a span is its duration minus the part of that interval its
// children cover (the union of their intervals, so children that ran in
// parallel on the replication pool are not double-counted).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;   ///< seconds since the tracer was created
    double end_s = -1;    ///< -1 while open
    std::vector<std::pair<std::string, double>> counters;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a child of the innermost open span; -1 when disabled.
  int open(std::string name);
  void close(int id);
  /// Attaches a counter (e.g. a slice's event delta) to span `id`.
  void counter(int id, std::string key, double value);
  /// Records a finished span measured elsewhere (a replication body on a
  /// pool thread), under `parent`.
  int add(std::string name, int parent, Clock::time_point start,
          Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] bool all_closed() const;
  /// Duration minus the union of the children's intervals.
  [[nodiscard]] std::vector<double> self_times() const;

  /// {"spans": [...]} with each span's self time.
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] double since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
