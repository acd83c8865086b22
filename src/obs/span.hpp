// Phase spans: nested [start, end] windows over simulated time.
//
// The rejuvenation pipeline is a tree of phases -- a pass contains one
// ladder rung per mechanism it tried, each rung the steps it ran (load
// xexec image, on-memory suspend, the quick reload, the resume, ...), and
// the host's own phases (dom0 shutdown, the quick reload with the VMM
// re-init inside it, the cache re-warm) -- and Fig. 7's downtime breakdown
// is exactly the step level of that tree. Spans record it directly: every
// span has a phase tag, a short inline label, a start and end in simulated
// microseconds, and an explicit parent, so the tree survives the
// callback-driven control flow (RAII scoping cannot: most phases end
// inside a completion callback, not at scope exit).
//
// Records are POD (no heap per span) and append-only; open/close are
// checked (no double close, no close of an unknown span, monotonic time),
// which is what the `obs` test label's nesting-invariant suite asserts.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "simcore/types.hpp"

namespace rh::obs {

/// Taxonomy of rejuvenation/migration phases (DESIGN.md §10).
enum class Phase : std::uint8_t {
  kPass,           ///< one whole rejuvenation pass (supervised)
  kStep,           ///< one named step of a pass (SupervisorReport::steps)
  kAdmission,      ///< pre-suspend preserved-memory admission
  kDom0Shutdown,   ///< domain 0 userland shutdown
  kQuickReload,    ///< xexec jump + new VMM + dom0 boot (no hardware reset)
  kVmmInit,        ///< new VMM instance boot + dom0 userland (re-)init
  kHardwareReset,  ///< power cycle + POST + boot loader
  kCacheRewarm,    ///< post-resume degradation window (creation artifact)
  kPreCopyRound,   ///< one live-migration pre-copy round
  kStopAndCopy,    ///< live-migration stop-and-copy
  kMigration,      ///< one whole live migration
  kLadderRung,     ///< one rung of the supervisor's degradation ladder
  kRollingPass,    ///< cluster-level rolling rejuvenation
  kMicroRecovery,  ///< one in-place VMM micro-recovery attempt (§13)
  kOther,
};

[[nodiscard]] const char* to_string(Phase p);

/// Index of a span within its recorder. kNoSpan = "no parent"/"disabled".
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

/// One recorded span. POD; label is inline and truncated to 31 chars.
struct SpanRecord {
  sim::SimTime start = 0;
  sim::SimTime end = kOpenEnd;
  SpanId parent = kNoSpan;
  Phase phase = Phase::kOther;
  char label[32] = {};

  static constexpr sim::SimTime kOpenEnd = -1;

  [[nodiscard]] bool open() const { return end == kOpenEnd; }
  [[nodiscard]] sim::Duration duration() const { return end - start; }

  void set_label(std::string_view s) {
    const std::size_t n = s.size() < sizeof label - 1 ? s.size() : sizeof label - 1;
    std::memcpy(label, s.data(), n);
    label[n] = '\0';
  }
};

/// Append-only store of phase spans with checked open/close.
class SpanRecorder {
 public:
  /// Opens a span at `now` under `parent` (kNoSpan for a root).
  SpanId open(sim::SimTime now, Phase phase, std::string_view label,
              SpanId parent = kNoSpan);

  /// Closes an open span at `now` (must be >= its start).
  void close(SpanId id, sim::SimTime now);

  /// Records an already-completed window in one call (used for windows
  /// whose end is known up front, e.g. the cache re-warm artifact).
  SpanId complete(sim::SimTime start, sim::SimTime end, Phase phase,
                  std::string_view label, SpanId parent = kNoSpan);

  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t open_count() const { return open_count_; }

  /// Direct children of `parent` (kNoSpan = the roots), in open order.
  [[nodiscard]] std::vector<SpanId> children_of(SpanId parent) const;

  void clear();

 private:
  std::vector<SpanRecord> records_;
  std::size_t open_count_ = 0;
};

}  // namespace rh::obs
