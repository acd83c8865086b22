// Exporters: Chrome trace_event JSON (chrome://tracing, Perfetto) and a
// flat metrics JSON consumed by benches and CI artifacts.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "obs/observer.hpp"

namespace rh::obs {

/// Locale-independent, round-trip-exact double formatting
/// (std::to_chars shortest form: strtod(fmt_double(v)) == v bit-for-bit).
/// printf's %g honours the C locale's decimal point, so exporter output
/// and BENCH_*.json digests could vary with the environment; every float
/// the exporters and the Prometheus renderer emit goes through here
/// instead. Infinities and NaN render as "inf"/"-inf"/"nan" (callers
/// embedding the result in JSON must quote or gate non-finite values).
[[nodiscard]] std::string fmt_double(double v);

/// fmt_double for JSON: finite values bare, inf/nan quoted (JSON has no
/// literal for them, and gauges can legitimately hold infinity, e.g.
/// unlimited-budget headroom).
[[nodiscard]] std::string json_number(double v);

/// Escapes text for a JSON string literal: quote, backslash, newline and
/// tab are escaped, other control characters are dropped. Labels come
/// from fixed string literals plus VM names, so this stays minimal.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Appends one process's spans and events to a Chrome trace. Spans become
/// async "b"/"e" pairs (async events tolerate the overlapping siblings a
/// parallel resume produces); typed events become instants. Call once per
/// host with a distinct `pid`, between write_chrome_trace_header/_footer.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Emits process metadata + all spans and events of `obs` under `pid`.
  void add_process(int pid, std::string_view name, const Observer& obs);

 private:
  void event_prefix();

  std::ostream& os_;
  bool first_ = true;
  bool closed_ = false;
};

/// Writes one Observer as a complete Chrome trace file.
void write_chrome_trace(std::ostream& os, const Observer& obs, int pid = 0,
                        std::string_view process_name = "host");

/// Flat metrics JSON: {"counters": {...}, "gauges": {...},
/// "summaries": {...}, "histograms": {...}}.
void write_metrics_json(std::ostream& os, const MetricsRegistry& m);

}  // namespace rh::obs
