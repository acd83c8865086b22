// Typed trace events: fixed-size POD records in a slab ring.
//
// With the spans and metrics beside them in obs::Observer, these are the
// only run log a host keeps. A TraceEvent is 64 bytes of plain data --
// enum kind/category, a numeric subject id, two integer payload words and
// a short inline label -- so emitting one is a bounds check plus a
// memcpy-sized store. Storage is a ring of lazily allocated fixed-size
// slabs: steady-state emission never allocates, and a bounded ring
// recycles the oldest slab instead of growing without limit on week-long
// simulations.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "simcore/types.hpp"

namespace rh::obs {

/// Which layer emitted the event.
enum class Category : std::uint8_t {
  kHost,
  kVmm,
  kGuest,
  kRejuv,
  kSupervisor,
  kMigrate,
  kCluster,
  kFault,
  kOther,
};

/// What happened. Kept deliberately coarse: the payload words and label
/// carry the specifics, and spans carry the durations.
enum class EventKind : std::uint8_t {
  kPhaseBegin,     ///< a phase span opened (mirrored for flat consumers)
  kPhaseEnd,       ///< a phase span closed
  kLifecycle,      ///< boot/shutdown/reload/crash state change
  kRecovery,       ///< a rejuv::RecoveryAction (payload a = action enum)
  kFaultInjected,  ///< a fault::FaultKind fired (payload a = kind enum)
  kDomain,         ///< domain created/destroyed/suspended/resumed
  kMark,           ///< generic numeric observation
  kSteadyFault,    ///< a steady in-service fault struck (payload a = kind)
};

[[nodiscard]] const char* to_string(Category c);
[[nodiscard]] const char* to_string(EventKind k);

/// One typed record. POD, exactly 64 bytes, no heap anywhere.
struct TraceEvent {
  sim::SimTime time = 0;      ///< simulated microseconds
  std::int32_t subject = -1;  ///< domain/host id, or -1
  Category category = Category::kOther;
  EventKind kind = EventKind::kMark;
  std::uint16_t reserved = 0;
  std::uint64_t a = 0;  ///< payload word (enum value, count, bytes, ...)
  std::uint64_t b = 0;  ///< second payload word
  char label[32] = {};  ///< NUL-terminated, truncated to 31 chars

  void set_label(std::string_view s) {
    const std::size_t n = s.size() < sizeof label - 1 ? s.size() : sizeof label - 1;
    std::memcpy(label, s.data(), n);
    label[n] = '\0';
  }
};
static_assert(sizeof(TraceEvent) == 64, "TraceEvent must stay one cache line");

/// Slab ring of TraceEvents. Slabs are allocated on demand; once
/// `max_slabs` are live, the oldest slab is recycled (its events are
/// dropped and `dropped()` counts them), so memory stays bounded.
class EventRing {
 public:
  static constexpr std::size_t kSlabEvents = 4096;

  explicit EventRing(std::size_t max_slabs = 64) : max_slabs_(max_slabs) {}

  /// Appends and returns a slot to fill in place. Never invalidated by
  /// later pushes until the slab it sits in is recycled.
  TraceEvent& push();

  /// Events currently retained (post-recycling).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Events discarded by ring recycling.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Slabs currently allocated (bounded by max_slabs).
  [[nodiscard]] std::size_t slabs() const { return slabs_.size(); }
  /// Times the ring reused its oldest slab instead of growing. Together
  /// with dropped() this makes trace loss observable instead of silent.
  [[nodiscard]] std::uint64_t recycled_slabs() const { return recycled_; }

  /// Oldest-to-newest iteration over the retained events.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slabs_.size(); ++i) {
      const Slab& s = *slabs_[(first_slab_ + i) % slabs_.size()];
      for (std::size_t j = 0; j < s.used; ++j) fn(s.events[j]);
    }
  }

  void clear();

 private:
  struct Slab {
    TraceEvent events[kSlabEvents];
    std::size_t used = 0;
  };

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::size_t first_slab_ = 0;  ///< index of the oldest slab in the ring
  std::size_t max_slabs_;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace rh::obs
