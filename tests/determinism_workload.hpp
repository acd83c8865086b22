// Deterministic mixed scheduling workload shared by the determinism
// regression test and the scheduler benchmarks.
//
// The workload interleaves pushes across three time horizons (near, mid,
// far), same-time bursts (FIFO collisions), deterministic cancellations of
// pending events, and partial drains, then fully drains the queue. The
// returned value is an order-sensitive FNV-1a hash over the exact sequence
// of (fire time, payload) pairs, so ANY reordering of event execution --
// including a same-time FIFO violation -- changes the hash. The golden
// value pinned in test_event_queue.cpp was produced by the original
// binary-heap EventQueue; every EventQueue must reproduce it bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/random.hpp"
#include "simcore/types.hpp"

namespace rh::test {

/// Runs the workload against any queue exposing the EventQueue interface
/// (push/cancel/pop/size/empty) and returns the event-order hash.
template <typename Queue>
std::uint64_t determinism_workload_hash(Queue& q) {
  sim::Rng rng(0xD15EA5EULL);
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;  // FNV prime
    }
  };

  struct Tracked {
    std::uint64_t id = 0;
    bool fired = false;
    bool cancelled = false;
  };
  std::vector<Tracked> events;         // indexed by payload
  std::vector<std::size_t> fire_log;   // payloads in fire order

  sim::SimTime base = 0;
  const auto push_one = [&](sim::SimTime t) {
    const std::size_t payload = events.size();
    const auto id = q.push(t, [payload, &fire_log] { fire_log.push_back(payload); });
    events.push_back({static_cast<std::uint64_t>(id), false, false});
  };
  const auto pop_one = [&]() {
    auto ev = q.pop();
    mix(static_cast<std::uint64_t>(ev.time));
    ev.fn();
    events[fire_log.back()].fired = true;
    mix(static_cast<std::uint64_t>(fire_log.back()));
  };

  constexpr int kRounds = 6;
  constexpr int kPushesPerRound = 400;
  for (int round = 0; round < kRounds; ++round) {
    const sim::SimTime hot[4] = {base + 17, base + 1000, base + 1001, base + 4242};
    for (int i = 0; i < kPushesPerRound; ++i) {
      const std::uint64_t r = rng.next();
      sim::SimTime t = 0;
      switch (r % 8) {
        case 0:  // same-time burst slots
          t = hot[(r >> 8) % 4];
          break;
        case 1:  // near horizon
          t = base + static_cast<sim::SimTime>((r >> 8) % 50);
          break;
        case 2:  // far horizon (TCP keepalives, weekly rejuvenation timers)
          t = base + 1'000'000 + static_cast<sim::SimTime>((r >> 8) % 1'000'000);
          break;
        default:  // mid horizon
          t = base + static_cast<sim::SimTime>((r >> 8) % 5000);
          break;
      }
      push_one(t);
    }

    // Cancel a deterministic subset of still-pending events.
    std::size_t scanned = 0;
    for (auto& e : events) {
      if (e.fired || e.cancelled) continue;
      if (++scanned % 7 == 3) {
        e.cancelled = true;
        mix(static_cast<std::uint64_t>(q.cancel(e.id)));
      }
    }

    // Drain ~60% of what is live, then keep scheduling next round "in the
    // past" relative to the far events already popped.
    const std::size_t pops = q.size() * 3 / 5;
    for (std::size_t i = 0; i < pops && !q.empty(); ++i) pop_one();
    base += 2500;
  }

  while (!q.empty()) pop_one();
  return h;
}

}  // namespace rh::test
