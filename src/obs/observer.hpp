// Observer: the per-host observability bundle (events + spans + metrics).
//
// Disabled (the default) it is a single predicted branch per call site:
// no formatting, no allocation, no RNG draws, no scheduled events -- a
// fault-free hot run does zero observability work and stays byte-identical
// (BENCH_obs.json demonstrates the contract). Enabled, every emit is a
// POD store into the slab ring and every span a checked vector append.
//
// The ambient span is how layers that cannot see each other nest their
// spans: the supervisor (or reboot driver) opens its pass span and makes
// it ambient; Host::quick_reload opens its span under the ambient one and
// makes *that* ambient for the VMM re-init it triggers. The simulation is
// single-threaded and the phases are sequential per host, so a single
// ambient slot per Observer is exact.
#pragma once

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace rh::obs {

class Observer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // ------------------------------------------------------- typed events
  /// Emits a typed event (no-op when disabled). `label` must not outlive
  /// the call -- it is copied (truncated) into the record.
  void emit(sim::SimTime t, Category c, EventKind k, std::string_view label,
            std::int32_t subject = -1, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    if (!enabled_) return;
    TraceEvent& e = ring_.push();
    e.time = t;
    e.subject = subject;
    e.category = c;
    e.kind = k;
    e.a = a;
    e.b = b;
    e.set_label(label);
  }

  // -------------------------------------------------------------- spans
  /// Opens a span under `parent` (defaulting to the ambient span).
  /// Returns kNoSpan when disabled; span_close(kNoSpan, ...) is a no-op,
  /// so call sites need no second guard.
  SpanId span_open(sim::SimTime now, Phase phase, std::string_view label) {
    if (!enabled_) return kNoSpan;
    return spans_.open(now, phase, label, ambient_);
  }
  SpanId span_open_under(sim::SimTime now, Phase phase, std::string_view label,
                         SpanId parent) {
    if (!enabled_) return kNoSpan;
    return spans_.open(now, phase, label, parent);
  }
  void span_close(SpanId id, sim::SimTime now) {
    if (!enabled_ || id == kNoSpan) return;
    spans_.close(id, now);
  }
  /// Records a window whose end is already known (e.g. cache re-warm).
  void span_complete(sim::SimTime start, sim::SimTime end, Phase phase,
                     std::string_view label) {
    if (!enabled_) return;
    spans_.complete(start, end, phase, label, ambient_);
  }
  void span_complete_under(sim::SimTime start, sim::SimTime end, Phase phase,
                           std::string_view label, SpanId parent) {
    if (!enabled_) return;
    spans_.complete(start, end, phase, label, parent);
  }

  /// The span new spans nest under by default. Callers must restore the
  /// previous ambient value when their phase completes (sequential
  /// callback flow makes save/restore exact).
  [[nodiscard]] SpanId ambient() const { return ambient_; }
  void set_ambient(SpanId id) {
    if (!enabled_) return;
    ambient_ = id;
  }

  /// Mirrors the slab ring's loss/recycling stats into the registry as
  /// `obs.ring_*` counters so scraped output shows trace loss instead of
  /// hiding it. Deliberately NOT gated on enabled_: exporters collect from
  /// the registry even when event emission is off (the counters then
  /// simply read zero), and registry writes never affect the simulation.
  void mirror_ring_stats() {
    metrics_.counter("obs.ring_events") = ring_.size();
    metrics_.counter("obs.ring_dropped") = ring_.dropped();
    metrics_.counter("obs.ring_slabs") = ring_.slabs();
    metrics_.counter("obs.ring_recycled_slabs") = ring_.recycled_slabs();
  }

  // ------------------------------------------------------------ storage
  [[nodiscard]] const EventRing& events() const { return ring_; }
  [[nodiscard]] const SpanRecorder& spans() const { return spans_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  bool enabled_ = false;
  SpanId ambient_ = kNoSpan;
  EventRing ring_;
  SpanRecorder spans_;
  MetricsRegistry metrics_;
};

}  // namespace rh::obs
