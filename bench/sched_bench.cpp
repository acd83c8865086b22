// Scheduler benchmark suite: the production EventQueue (indexed 4-ary
// heap) vs the preserved legacy binary-heap queue, measured side by side
// on the workload shapes the simulator produces. Each queue here holds
// --events pending events (65,536 by default), far deeper than any queue
// a shipped run drives, so the table bounds the per-event cost rather
// than predicting end-to-end time.
//
//   hold              -- Vaucher's hold model: steady-state pop-then-push at
//                        constant queue size, the standard DES scheduler
//                        throughput metric and the regime Simulation actually
//                        runs in during a long cluster simulation
//   push_pop_trivial  -- N stateless events at random times, full drain
//   push_pop_capture  -- same, but each event carries a 40-byte capture
//                        (this-pointer + ids: the real call-site shape)
//   cancel_heavy      -- every second event is cancelled before it fires
//                        (TCP retransmission timers, prober reschedules)
//   same_time_burst   -- events arrive in same-timestamp bursts (parallel
//                        suspends, cluster-wide probe rounds)
//   mixed_horizon     -- microsecond TCP events interleaved with week-scale
//                        rejuvenation timers, partial drains in between
//
// Emits BENCH_sched.json (machine-readable; schema documented in
// EXPERIMENTS.md) so the scheduler's perf trajectory is tracked from PR 1
// onward. Usage:
//
//   sched_bench [--budget-seconds S] [--out PATH] [--events N]
//
// The wall-clock budget bounds total runtime (CI smoke uses 2 s); each
// workload runs as many repetitions as fit its share of the budget and
// reports the best repetition (lowest noise floor).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "flags.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/legacy_heap_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/types.hpp"

namespace {

using namespace rh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Sink the callback side effects so the optimizer cannot delete the events.
volatile std::uint64_t g_sink = 0;

struct Result {
  std::uint64_t events = 0;  // events fired per repetition
  double best_seconds = 1e100;
  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / best_seconds;
  }
};

// Each workload is a template running identically against both queue types,
// returning the number of events fired.
template <typename Queue>
std::uint64_t run_hold(std::size_t n) {
  Queue q;
  sim::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    q.push(static_cast<sim::SimTime>(rng.next() % 1000000),
           [] { g_sink = g_sink + 1; });
  }
  // Steady state: every fired event schedules a successor a random interval
  // ahead, holding the queue at exactly n events -- the pattern the
  // simulator's timer-driven models produce for hours of simulated time.
  const std::size_t holds = 4 * n;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < holds; ++i) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
    q.push(ev.time + 1 + static_cast<sim::SimTime>(rng.next() % 1000000),
           [] { g_sink = g_sink + 1; });
  }
  q.clear();
  return fired;
}

template <typename Queue>
std::uint64_t run_push_pop_trivial(std::size_t n) {
  Queue q;
  sim::Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    q.push(static_cast<sim::SimTime>(rng.next() % 1000000),
           [] { g_sink = g_sink + 1; });
  }
  std::uint64_t fired = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
  }
  return fired;
}

template <typename Queue>
std::uint64_t run_push_pop_capture(std::size_t n) {
  Queue q;
  sim::Rng rng(2);
  std::uint64_t a = 1, b = 2, c = 3;
  std::uint64_t* sink_words[1] = {&a};
  for (std::size_t i = 0; i < n; ++i) {
    // 40 bytes of capture: a pointer and four 64-bit values, the shape of
    // `[this, id, deadline, seq]`-style closures across src/.
    q.push(static_cast<sim::SimTime>(rng.next() % 1000000),
           [p = sink_words[0], a, b, c, i] {
             g_sink = g_sink + (*p + a + b + c + i);
           });
  }
  std::uint64_t fired = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
  }
  return fired;
}

template <typename Queue>
std::uint64_t run_cancel_heavy(std::size_t n) {
  Queue q;
  sim::Rng rng(3);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<std::uint64_t>(
        q.push(static_cast<sim::SimTime>(rng.next() % 1000000),
               [] { g_sink = g_sink + 1; })));
  }
  for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
  std::uint64_t fired = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
  }
  return fired;
}

template <typename Queue>
std::uint64_t run_same_time_burst(std::size_t n) {
  Queue q;
  constexpr std::size_t kBurst = 64;
  sim::SimTime t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kBurst == 0) t += 100;
    q.push(t, [] { g_sink = g_sink + 1; });
  }
  std::uint64_t fired = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
  }
  return fired;
}

template <typename Queue>
std::uint64_t run_mixed_horizon(std::size_t n) {
  Queue q;
  sim::Rng rng(4);
  std::uint64_t fired = 0;
  sim::SimTime base = 0;
  const std::size_t rounds = 8;
  const std::size_t per_round = n / rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < per_round; ++i) {
      const auto v = rng.next();
      sim::SimTime t = 0;
      switch (v % 4) {
        case 0:
          t = base + static_cast<sim::SimTime>((v >> 8) % 200);  // RTT scale
          break;
        case 1:
          t = base + static_cast<sim::SimTime>(sim::kSecond + (v >> 8) % sim::kSecond);
          break;
        case 2:
          t = base + static_cast<sim::SimTime>(sim::kHour + (v >> 8) % sim::kDay);
          break;
        default:
          t = base + static_cast<sim::SimTime>((v >> 8) % 50000);
          break;
      }
      q.push(t, [] { g_sink = g_sink + 1; });
    }
    const std::size_t pops = q.size() / 2;
    for (std::size_t i = 0; i < pops; ++i) {
      auto ev = q.pop();
      ev.fn();
      ++fired;
    }
    base += 25000;
  }
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ++fired;
  }
  return fired;
}

using WorkloadFn = std::uint64_t (*)(std::size_t);

struct Workload {
  const char* name;
  WorkloadFn legacy;
  WorkloadFn current;
};

// Run both implementations with interleaved repetitions (legacy, current,
// legacy, ...) and take each side's best. The host this runs on shows
// multi-second throughput swings; pairing the repetitions in time means both
// sides sample the same noise episodes, so the ratio is far more stable than
// measuring one side after the other.
std::pair<Result, Result> measure_pair(const Workload& w, std::size_t n,
                                       double budget_seconds) {
  Result legacy;
  Result current;
  const auto t0 = Clock::now();
  int reps = 0;
  // Always complete at least one repetition of each; then repeat while the
  // budget lasts (capped so a fast machine doesn't spin forever).
  do {
    auto s0 = Clock::now();
    legacy.events = w.legacy(n);
    legacy.best_seconds = std::min(legacy.best_seconds, seconds_since(s0));
    s0 = Clock::now();
    current.events = w.current(n);
    current.best_seconds = std::min(current.best_seconds, seconds_since(s0));
    ++reps;
  } while (seconds_since(t0) < budget_seconds && reps < 50);
  return {legacy, current};
}

}  // namespace

int main(int argc, char** argv) {
  double budget_seconds = 10.0;
  std::size_t events = 1 << 16;
  std::string out_path = "BENCH_sched.json";
  bench::Flags()
      .number("--budget-seconds", budget_seconds)
      .path("--out", out_path)
      .integer("--events", events, 1)
      .parse(argc, argv);

  const Workload workloads[] = {
      {"hold", &run_hold<sim::LegacyHeapQueue>, &run_hold<sim::EventQueue>},
      {"push_pop_trivial", &run_push_pop_trivial<sim::LegacyHeapQueue>,
       &run_push_pop_trivial<sim::EventQueue>},
      {"push_pop_capture", &run_push_pop_capture<sim::LegacyHeapQueue>,
       &run_push_pop_capture<sim::EventQueue>},
      {"cancel_heavy", &run_cancel_heavy<sim::LegacyHeapQueue>,
       &run_cancel_heavy<sim::EventQueue>},
      {"same_time_burst", &run_same_time_burst<sim::LegacyHeapQueue>,
       &run_same_time_burst<sim::EventQueue>},
      {"mixed_horizon", &run_mixed_horizon<sim::LegacyHeapQueue>,
       &run_mixed_horizon<sim::EventQueue>},
  };
  const std::size_t n_workloads = std::size(workloads);
  const double per_measure = budget_seconds / static_cast<double>(n_workloads);

  std::printf("scheduler benchmark: %zu events/workload, %.1f s budget\n\n",
              events, budget_seconds);
  std::printf("%-18s %15s %17s %9s\n", "workload", "legacy ev/s",
              "event_queue ev/s", "speedup");

  std::string json = "{\n  \"benchmark\": \"scheduler\",\n";
  json += "  " + bench::argv_json() + ",\n";
  json += "  \"events_per_workload\": " + std::to_string(events) + ",\n";
  // legacy_heap below IS the pre-change baseline: LegacyHeapQueue preserves
  // the seed scheduler (std::function + std::priority_queue + tombstone set)
  // verbatim, so every workload records baseline and new throughput from the
  // same binary and the same interleaved run.
  json += "  \"baseline\": \"legacy_heap == pre-change scheduler "
          "(std::function + binary heap + tombstone set), measured in-binary\",\n";
  json += "  \"workloads\": [\n";
  double geomean = 1.0;
  for (std::size_t w = 0; w < n_workloads; ++w) {
    const auto [legacy, current] = measure_pair(workloads[w], events, per_measure);
    const double speedup = current.events_per_sec() / legacy.events_per_sec();
    geomean *= speedup;
    std::printf("%-18s %15.0f %17.0f %8.2fx\n", workloads[w].name,
                legacy.events_per_sec(), current.events_per_sec(), speedup);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events_fired\": %llu,\n"
                  "     \"legacy_heap\":   {\"events_per_sec\": %.0f, \"best_seconds\": %.6f},\n"
                  "     \"event_queue\":    {\"events_per_sec\": %.0f, \"best_seconds\": %.6f},\n"
                  "     \"speedup\": %.3f}%s\n",
                  workloads[w].name,
                  static_cast<unsigned long long>(current.events),
                  legacy.events_per_sec(), legacy.best_seconds,
                  current.events_per_sec(), current.best_seconds, speedup,
                  w + 1 < n_workloads ? "," : "");
    json += buf;
  }
  geomean = std::pow(geomean, 1.0 / static_cast<double>(n_workloads));
  json += "  ],\n";
  char tail[128];
  std::snprintf(tail, sizeof(tail), "  \"geomean_speedup\": %.3f\n}\n", geomean);
  json += tail;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\ngeomean speedup: %.2fx  (written to %s)\n", geomean, out_path.c_str());
  return 0;
}
