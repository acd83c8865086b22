#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "reference_prober.hpp"
#include "simcore/check.hpp"
#include "simcore/parallel.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "workload/prober.hpp"

namespace rh::test {
namespace {

TEST(Prober, RecordsTransitionsOnly) {
  sim::Simulation s;
  bool up = true;
  workload::Prober p(s, {}, [&] { return up; });
  p.start();
  s.run_until(sim::kSecond);
  s.after(0, [&] { up = false; });
  s.run_until(2 * sim::kSecond);
  s.after(0, [&] { up = true; });
  s.run_until(3 * sim::kSecond);
  p.stop();
  // first probe (up), down transition, up transition.
  ASSERT_EQ(p.transitions().size(), std::size_t{3});
  EXPECT_TRUE(p.transitions()[0].up);
  EXPECT_FALSE(p.transitions()[1].up);
  EXPECT_TRUE(p.transitions()[2].up);
}

TEST(Prober, OutageMeasurement) {
  sim::Simulation s;
  bool up = true;
  workload::Prober p(s, {}, [&] { return up; });
  p.start();
  s.at(5 * sim::kSecond, [&] { up = false; });
  s.at(25 * sim::kSecond, [&] { up = true; });
  s.run_until(sim::kMinute);
  p.stop();
  const auto outage = p.outage_after(0);
  ASSERT_TRUE(outage.has_value());
  // 20 s outage, measured to probe resolution (100 ms).
  EXPECT_NEAR(sim::to_seconds(*outage), 20.0, 0.3);
  EXPECT_NEAR(sim::to_seconds(p.down_at_after(0).value()), 5.0, 0.2);
  EXPECT_FALSE(p.outage_after(30 * sim::kSecond).has_value());
}

TEST(Prober, UnfinishedOutageNotReported) {
  sim::Simulation s;
  bool up = true;
  workload::Prober p(s, {}, [&] { return up; });
  p.start();
  s.at(5 * sim::kSecond, [&] { up = false; });
  s.run_until(sim::kMinute);
  EXPECT_TRUE(p.down_at_after(0).has_value());
  EXPECT_FALSE(p.outage_after(0).has_value());  // never came back
  EXPECT_FALSE(p.currently_up());
}

TEST(Prober, TotalDowntimeAcrossMultipleOutages) {
  sim::Simulation s;
  bool up = true;
  workload::Prober p(s, {}, [&] { return up; });
  p.start();
  s.at(10 * sim::kSecond, [&] { up = false; });
  s.at(15 * sim::kSecond, [&] { up = true; });
  s.at(30 * sim::kSecond, [&] { up = false; });
  s.at(40 * sim::kSecond, [&] { up = true; });
  s.run_until(sim::kMinute);
  p.stop();
  EXPECT_NEAR(sim::to_seconds(p.total_downtime(0, sim::kMinute)), 15.0, 0.5);
  // Clipped windows count only the overlap.
  EXPECT_NEAR(sim::to_seconds(p.total_downtime(12 * sim::kSecond,
                                               14 * sim::kSecond)),
              2.0, 0.3);
}

TEST(Prober, StopCancelsFutureProbes) {
  sim::Simulation s;
  std::vector<sim::SimTime> calls;
  workload::Prober p(s, {}, [&] {
    calls.push_back(s.now());
    return true;
  });
  p.start();
  s.run_until(sim::kSecond);
  p.stop();
  const std::size_t at_stop = calls.size();
  s.run_until(10 * sim::kSecond);
  EXPECT_EQ(calls.size(), at_stop);
  // One probe per instant in [0, 1 s]; the ticks it slept through read
  // the answer it had and count as sent, but call nothing.
  EXPECT_EQ(p.probes_sent(), 11U);
  EXPECT_LE(calls.size(), 11U);
  EXPECT_TRUE(std::all_of(calls.begin(), calls.end(),
                          [](sim::SimTime t) { return t <= sim::kSecond; }));
}

// ------------------------------------------ sleeping groups vs the reference
//
// workload::Prober lets probers whose ticks would fire back to back share
// one calendar event, which sleeps through the ticks before the calendar's
// next event and the run's horizon. The seeded scenarios below drive it
// and the one-event-per-prober ReferenceProber through the same schedule
// under four drivers. Probe callbacks are pure reads; every flip, start,
// stop, restart and destroy is a scripted event or happens between runs,
// and appends (time, id) to its calendar's log, so the two runs must agree
// on the order of everything scripted, not only on what the probers
// recorded.

/// What one prober recorded, in a form both prober types convert to.
struct ProberRecord {
  std::vector<std::pair<sim::SimTime, bool>> transitions;
  std::uint64_t probes = 0;
  bool up = false;
  std::optional<sim::Duration> outage;
  std::optional<sim::Duration> late_outage;
  sim::Duration downtime = 0;

  bool operator==(const ProberRecord&) const = default;
};

constexpr sim::SimTime kHorizon = 20 * sim::kSecond;
constexpr sim::Duration kStep = 50 * sim::kMillisecond;

template <typename P>
ProberRecord record(const P& p) {
  ProberRecord r;
  for (const auto& t : p.transitions()) r.transitions.emplace_back(t.time, t.up);
  r.probes = p.probes_sent();
  r.up = p.currently_up();
  r.outage = p.outage_after(0);
  r.late_outage = p.outage_after(5 * sim::kSecond);
  r.downtime = p.total_downtime(0, kHorizon);
  return r;
}

using Log = std::vector<std::pair<sim::SimTime, int>>;

struct ScenarioResult {
  std::vector<ProberRecord> probers;
  std::vector<Log> logs;  // one per calendar
  std::uint64_t events = 0;
};

/// How a scenario is run to kHorizon, in slices that end at the drawn
/// slice ends; between slices the driver applies the drawn inserts.
enum class Driver {
  kRunUntil,  ///< run_until(end)
  kRun,       ///< run(), stopped by an event at the end
  kStep,      ///< step() until an event at the end raises a flag
  kEngine1,   ///< four engine partitions, flips arrive as messages; 1 worker
  kEngine4,   ///< the same on 4 workers
};

constexpr int kPartitions = 4;
/// The engine's lookahead: wide enough that a window spans several ticks.
constexpr sim::Duration kLookahead = 250 * sim::kMillisecond;

/// A seeded schedule of prober starts, stops, restarts, destructions and
/// state flips. Drawn up front, so every prober type and driver replays
/// the same one. Under the engine, target t and the probers reading it
/// live on partition t % kPartitions.
struct Scenario {
  struct ProberPlan {
    int target = 0;
    sim::Duration interval = 0;
  };
  struct Burst {
    sim::SimTime at = 0;
    std::vector<int> probers;  // started back to back, in this order
    /// noise[i]: flips of targets on the i-th prober's partition,
    /// scheduled right after it starts, as (time, target).
    std::vector<Log> noise;
  };
  struct Action {
    sim::SimTime at = 0;
    int prober = 0;
    enum Kind { kStop, kStopRestart, kRestart, kDestroy } kind = kStop;
  };
  /// Between two slices: flip `target` at once, outside any event, or
  /// schedule its flip `ticks` steps after the first tick instant at or
  /// after the slice's end.
  struct Insert {
    int target = 0;
    bool direct = false;
    int ticks = 0;
  };

  std::vector<ProberPlan> probers;
  std::vector<Burst> bursts;
  Log early_flips;  // scheduled first
  std::vector<Action> actions;
  std::vector<sim::SimTime> slice_ends;  // ascending, the last is kHorizon
  std::vector<std::vector<Insert>> inserts;  // after each slice but the last
  int targets = 2 * kPartitions;
};

/// A multiple of kStep in [lo, hi], so it can coincide with prober ticks:
/// every start and interval is a multiple of kStep too.
sim::SimTime tick_time(sim::Rng& rng, sim::SimTime lo, sim::SimTime hi) {
  return kStep * rng.uniform_int(lo / kStep, hi / kStep);
}

Scenario draw_scenario(std::uint64_t seed) {
  sim::Rng rng(seed);
  Scenario sc;
  const sim::Duration intervals[] = {kStep, 2 * kStep, 2 * kStep, 4 * kStep};
  const auto pick = [&rng](std::int64_t n) { return rng.uniform_int(0, n - 1); };
  // Another target on the same engine partition.
  const auto sibling = [&](int target) {
    return (target + kPartitions * static_cast<int>(pick(2))) % sc.targets;
  };
  for (int i = 0; i < 10; ++i) {
    sc.early_flips.emplace_back(tick_time(rng, sim::kSecond, kHorizon),
                                static_cast<int>(pick(sc.targets)));
  }
  const int bursts = 1 + static_cast<int>(pick(4));
  for (int b = 0; b < bursts; ++b) {
    Scenario::Burst burst;
    // Burst 0 starts at 0 with a clean pair: two probers on one interval
    // and one partition, nothing scheduled between them. So every
    // scenario shares a tick.
    burst.at = b == 0 ? 0 : tick_time(rng, 0, 5 * sim::kSecond);
    const int k = b == 0 ? 2 + static_cast<int>(pick(11))
                         : 1 + static_cast<int>(pick(12));
    const sim::Duration base = intervals[pick(4)];
    for (int i = 0; i < k; ++i) {
      const bool clean = b == 0 && i < 2;
      Scenario::ProberPlan p;
      p.target = clean && i == 1 ? sibling(sc.probers.back().target)
                                 : static_cast<int>(pick(sc.targets));
      p.interval = !clean && pick(5) == 0 ? intervals[pick(4)] : base;
      Log noise;
      if (!clean && pick(4) == 0) {
        noise.emplace_back(burst.at + base * rng.uniform_int(0, 3),
                           sibling(p.target));
      }
      burst.probers.push_back(static_cast<int>(sc.probers.size()));
      burst.noise.push_back(std::move(noise));
      sc.probers.push_back(p);
    }
    sc.bursts.push_back(std::move(burst));
  }
  const auto n = static_cast<std::int64_t>(sc.probers.size());
  for (int i = 0; i < 4; ++i) {
    sc.actions.push_back({tick_time(rng, sim::kSecond, 15 * sim::kSecond),
                          static_cast<int>(pick(n)),
                          static_cast<Scenario::Action::Kind>(pick(3))});
  }
  if (pick(3) == 0) {
    sc.actions.push_back({tick_time(rng, sim::kSecond, 15 * sim::kSecond),
                          static_cast<int>(pick(n)),
                          Scenario::Action::kDestroy});
  }
  // Slice ends at tick instants and half-way between them.
  for (int i = static_cast<int>(pick(4)); i > 0; --i) {
    sc.slice_ends.push_back(tick_time(rng, sim::kSecond, kHorizon - sim::kSecond) +
                            (pick(2) == 0 ? kStep / 2 : 0));
  }
  std::sort(sc.slice_ends.begin(), sc.slice_ends.end());
  sc.slice_ends.erase(std::unique(sc.slice_ends.begin(), sc.slice_ends.end()),
                      sc.slice_ends.end());
  sc.slice_ends.push_back(kHorizon);
  for (std::size_t i = 0; i + 1 < sc.slice_ends.size(); ++i) {
    std::vector<Scenario::Insert> inserts;
    for (int j = 1 + static_cast<int>(pick(3)); j > 0; --j) {
      inserts.push_back({static_cast<int>(pick(sc.targets)), pick(3) == 0,
                         static_cast<int>(pick(4))});
    }
    sc.inserts.push_back(std::move(inserts));
  }
  return sc;
}

template <typename P>
ScenarioResult run_scenario(const Scenario& sc, Driver driver) {
  const bool on_engine = driver == Driver::kEngine1 || driver == Driver::kEngine4;
  const int calendars = on_engine ? kPartitions : 1;
  sim::Simulation single;
  sim::ParallelSimulation engine(
      {.partitions = kPartitions, .workers = driver == Driver::kEngine4 ? 4u : 1u});
  engine.register_link(kLookahead);
  const auto home = [calendars](int target) { return target % calendars; };
  const auto cal = [&](int h) -> sim::Simulation& {
    return on_engine ? engine.partition(h) : single;
  };

  ScenarioResult out;
  out.logs.resize(static_cast<std::size_t>(calendars));
  const auto log = [&](int h, int id) {
    out.logs[static_cast<std::size_t>(h)].emplace_back(cal(h).now(), id);
  };
  std::vector<char> up(static_cast<std::size_t>(sc.targets), 1);
  const auto flip_now = [&](int target, int id) {
    up[static_cast<std::size_t>(target)] ^= 1;
    log(home(target), id);
  };
  const auto flip_at = [&](sim::SimTime t, int target, int id) {
    cal(home(target)).at(t, [&flip_now, target, id] { flip_now(target, id); });
  };
  for (std::size_t i = 0; i < sc.early_flips.size(); ++i) {
    const auto [t, target] = sc.early_flips[i];
    const int id = -1 - static_cast<int>(i);
    if (!on_engine) {
      flip_at(t, target, id);
      continue;
    }
    // Sent by the next partition, one to three steps beyond the lookahead
    // ahead of its arrival.
    const int dst = home(target);
    const sim::Duration delay = kLookahead + kStep * static_cast<sim::Duration>(i % 3);
    engine.partition((dst + 1) % kPartitions).at(t - delay, [&, dst, delay, target, id] {
      engine.post(dst, delay, [&flip_now, target, id] { flip_now(target, id); });
    });
  }

  const std::size_t n = sc.probers.size();
  std::vector<std::unique_ptr<P>> probers(n);
  out.probers.resize(n);
  const auto home_of = [&](std::size_t i) { return home(sc.probers[i].target); };
  for (std::size_t i = 0; i < n; ++i) {
    const auto target = static_cast<std::size_t>(sc.probers[i].target);
    probers[i] = std::make_unique<P>(cal(home_of(i)),
                                     typename P::Config{sc.probers[i].interval},
                                     [&up, target] { return up[target] != 0; });
  }
  for (const auto& burst : sc.bursts) {
    for (int h = 0; h < calendars; ++h) {
      cal(h).at(burst.at, [&, h] {
        for (std::size_t k = 0; k < burst.probers.size(); ++k) {
          const auto i = static_cast<std::size_t>(burst.probers[k]);
          if (home_of(i) != h) continue;
          // Destroyed already, or restarted: stop is a no-op if stopped.
          if (auto& p = probers[i]) {
            p->stop();
            p->start();
          }
          for (const auto& [t, target] : burst.noise[k]) flip_at(t, target, 2000);
        }
      });
    }
  }
  for (const auto& a : sc.actions) {
    const auto i = static_cast<std::size_t>(a.prober);
    const int h = home_of(i);
    cal(h).at(a.at, [&, a, i, h] {
      auto& p = probers[i];
      log(h, -5000 - a.prober);
      if (!p) return;
      switch (a.kind) {
        case Scenario::Action::kStop:
          p->stop();
          break;
        case Scenario::Action::kStopRestart:
          p->stop();
          p->start();
          break;
        case Scenario::Action::kRestart:
          p->stop();
          cal(h).after(150 * sim::kMillisecond, [&p] {
            if (p) {
              p->stop();
              p->start();
            }
          });
          break;
        case Scenario::Action::kDestroy:
          out.probers[i] = record(*p);
          p.reset();
          break;
      }
    });
  }

  for (std::size_t slice = 0; slice < sc.slice_ends.size(); ++slice) {
    const sim::SimTime end = sc.slice_ends[slice];
    switch (driver) {
      case Driver::kRunUntil:
        single.run_until(end);
        break;
      case Driver::kRun:
        single.at(end, [&] {
          log(0, -6000);
          single.stop();
        });
        single.run();
        break;
      case Driver::kStep: {
        bool reached = false;
        single.at(end, [&] {
          log(0, -7000);
          reached = true;
        });
        while (!reached) single.step();
        break;
      }
      case Driver::kEngine1:
      case Driver::kEngine4:
        engine.run_until(end);
        break;
    }
    if (slice + 1 == sc.slice_ends.size()) break;
    const sim::SimTime next_tick = (end + kStep - 1) / kStep * kStep;
    for (const auto& ins : sc.inserts[slice]) {
      if (ins.direct) {
        flip_now(ins.target, 3000);
      } else {
        flip_at(next_tick + kStep * ins.ticks, ins.target, 3001);
      }
    }
  }
  out.events = on_engine ? engine.total_executed_events() : single.executed_events();
  for (std::size_t i = 0; i < n; ++i) {
    if (probers[i]) out.probers[i] = record(*probers[i]);
  }
  return out;
}

TEST(ProberShared, MatchesOneEventPerProberOnSeededScenarios) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    const Scenario sc = draw_scenario(seed);
    for (const Driver driver : {Driver::kRunUntil, Driver::kRun, Driver::kStep,
                                Driver::kEngine1, Driver::kEngine4}) {
      SCOPED_TRACE(static_cast<int>(driver));
      const ScenarioResult want = run_scenario<ReferenceProber>(sc, driver);
      const ScenarioResult got = run_scenario<workload::Prober>(sc, driver);
      ASSERT_EQ(got.probers.size(), want.probers.size());
      for (std::size_t i = 0; i < want.probers.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(got.probers[i].transitions, want.probers[i].transitions);
        EXPECT_EQ(got.probers[i].probes, want.probers[i].probes);
        EXPECT_EQ(got.probers[i].outage, want.probers[i].outage);
        EXPECT_EQ(got.probers[i].late_outage, want.probers[i].late_outage);
        EXPECT_EQ(got.probers[i].downtime, want.probers[i].downtime);
        EXPECT_EQ(got.probers[i].up, want.probers[i].up);
      }
      EXPECT_EQ(got.logs, want.logs);
      // Burst 0's clean pair shares at least its first tick.
      EXPECT_LT(got.events, want.events);
    }
  }
}

/// Executed events of `n` probers started back to back and driven to
/// 10 s by `drive`.
template <typename P, typename Drive>
std::uint64_t events_of_a_burst(int n, const Drive& drive) {
  sim::Simulation s;
  std::vector<std::unique_ptr<P>> probers;
  for (int i = 0; i < n; ++i) {
    probers.push_back(std::make_unique<P>(s, typename P::Config{}, [] { return true; }));
    probers.back()->start();
  }
  drive(s);
  for (const auto& p : probers) EXPECT_EQ(p->probes_sent(), 101U);
  return s.executed_events();
}

TEST(ProberShared, ProbersStartedTogetherShareOneEvent) {
  const auto run_until = [](sim::Simulation& s) { s.run_until(10 * sim::kSecond); };
  // step() hands control back after every event, so nothing is skipped.
  const auto step = [](sim::Simulation& s) {
    while (s.next_event_time() <= 10 * sim::kSecond) s.step();
  };
  EXPECT_EQ(events_of_a_burst<ReferenceProber>(11, run_until), 1100U);
  EXPECT_LE(events_of_a_burst<workload::Prober>(11, run_until), 2U);
  EXPECT_EQ(events_of_a_burst<workload::Prober>(11, step), 100U);
}

TEST(ProberShared, SleepsNoFurtherThanTheRunUntilDeadline) {
  // With an event pending at 10 s, the group could sleep from 100 ms to
  // 10 s, but run_until(1 s) hands control back at 1 s, and a flip
  // scheduled then for 1.1 s, the first tick after the deadline, must be
  // seen at the next tick, 1.2 s, as one event per prober sees it.
  const auto run = [](auto* tag) {
    using P = std::remove_pointer_t<decltype(tag)>;
    sim::Simulation s;
    bool up = true;
    s.at(10 * sim::kSecond, [] {});
    P p(s, {}, [&up] { return up; });
    p.start();
    s.run_until(sim::kSecond);
    s.at(1100 * sim::kMillisecond, [&up] { up = false; });
    s.run_until(2 * sim::kSecond);
    return std::make_pair(p.down_at_after(0), p.probes_sent());
  };
  const auto want = run(static_cast<ReferenceProber*>(nullptr));
  ASSERT_EQ(want.first, std::optional<sim::SimTime>(1200 * sim::kMillisecond));
  EXPECT_EQ(want.second, 21U);
  EXPECT_EQ(run(static_cast<workload::Prober*>(nullptr)), want);
}

// A probe callback must be a pure read; the prober throws on what it can
// see of a callback that is not.
TEST(ProberShared, CallbackThatSchedulesOrCancelsThrows) {
  {
    sim::Simulation s;
    workload::Prober a(s, {}, [&s] {
      if (s.now() > 0) s.after(sim::kMillisecond, [] {});
      return true;
    });
    a.start();
    EXPECT_THROW(s.run_until(sim::kSecond), InvariantViolation);
  }
  {
    sim::Simulation s;
    workload::Prober a(s, {}, [&s] {
      s.after(sim::kMillisecond, [] {});
      return true;
    });
    EXPECT_THROW(a.start(), InvariantViolation);
  }
  {
    sim::Simulation s;
    const sim::EventId later = s.at(10 * sim::kSecond, [] {});
    workload::Prober a(s, {}, [&s, later] {
      if (s.now() > 0) s.cancel(later);
      return true;
    });
    a.start();
    EXPECT_THROW(s.run_until(sim::kSecond), InvariantViolation);
  }
}

TEST(ProberShared, CallbackThatStopsTheSimulationBetweenMembersThrows) {
  sim::Simulation s;
  workload::Prober a(s, {}, [&] {
    if (s.now() > 0) s.stop();
    return true;
  });
  workload::Prober b(s, {}, [] { return true; });
  a.start();
  b.start();
  EXPECT_THROW(s.run_until(sim::kSecond), InvariantViolation);
}

TEST(ProberShared, LastMemberThatStopsTheSimulationThrows) {
  // The last member of a shared tick is held to the same pure-read rule.
  sim::Simulation s;
  workload::Prober a(s, {}, [] { return true; });
  workload::Prober b(s, {}, [&] {
    if (s.now() > 0) s.stop();
    return true;
  });
  a.start();
  b.start();
  EXPECT_THROW(s.run_until(sim::kSecond), InvariantViolation);
}

TEST(ProberShared, CallbackThatStopsAProberThrows) {
  sim::Simulation s;
  workload::Prober b(s, {}, [] { return true; });
  workload::Prober a(s, {}, [&s, &b] {
    if (s.now() > 0) b.stop();
    return true;
  });
  b.start();
  a.start();
  EXPECT_THROW(s.run_until(sim::kSecond), InvariantViolation);
  // Starting one from a callback throws as well.
  sim::Simulation s2;
  workload::Prober c(s2, {}, [] { return true; });
  workload::Prober d(s2, {}, [&c] {
    c.start();
    return true;
  });
  EXPECT_THROW(d.start(), InvariantViolation);
}

TEST(ProberShared, StoppingEveryMemberCancelsTheSharedEvent) {
  sim::Simulation s;
  workload::Prober a(s, {}, [] { return true; });
  workload::Prober b(s, {}, [] { return true; });
  a.start();
  b.start();
  EXPECT_EQ(s.pending_events(), 1U);
  a.stop();
  EXPECT_EQ(s.pending_events(), 1U);
  b.stop();
  EXPECT_EQ(s.pending_events(), 0U);
}

/// Every prober's first outage in each replication of a 3 x 8 grid, each
/// replication starting 1..12 probers back to back on its own Simulation.
template <typename P>
std::vector<std::optional<sim::Duration>> grid_outages(std::size_t threads) {
  exp::GridSpec spec;
  spec.points = 3;
  spec.replications = 8;
  spec.root_seed = 7;
  spec.threads = threads;
  std::vector<std::vector<std::optional<sim::Duration>>> slots(spec.points *
                                                               spec.replications);
  exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
    sim::Simulation s;
    sim::Rng rng = ctx.rng;
    const std::size_t n = 1 + ctx.point_index * 4 + ctx.replication_index % 4;
    std::vector<char> up(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const sim::SimTime down = tick_time(rng, sim::kSecond, 10 * sim::kSecond);
      const sim::SimTime back =
          down + tick_time(rng, 200 * sim::kMillisecond, 10 * sim::kSecond);
      s.at(down, [&up, i] { up[i] = 0; });
      s.at(back, [&up, i] { up[i] = 1; });
    }
    std::vector<std::unique_ptr<P>> probers;
    for (std::size_t i = 0; i < n; ++i) {
      probers.push_back(std::make_unique<P>(s, typename P::Config{},
                                            [&up, i] { return up[i] != 0; }));
      probers.back()->start();
    }
    s.run_until(30 * sim::kSecond);
    auto& slot = slots[ctx.point_index * spec.replications + ctx.replication_index];
    for (auto& p : probers) {
      p->stop();
      slot.push_back(p->outage_after(0));
    }
    exp::ReplicationResult r;
    r.values = {static_cast<double>(n)};
    return r;
  });
  std::vector<std::optional<sim::Duration>> out;
  for (const auto& slot : slots) out.insert(out.end(), slot.begin(), slot.end());
  return out;
}

TEST(ProberShared, RunGridReplicationsMatchOnOneAndFourThreads) {
  const auto want = grid_outages<ReferenceProber>(1);
  ASSERT_EQ(want.size(), 156U);
  EXPECT_TRUE(std::all_of(want.begin(), want.end(),
                          [](const auto& o) { return o.has_value(); }));
  EXPECT_EQ(grid_outages<workload::Prober>(1), want);
  EXPECT_EQ(grid_outages<workload::Prober>(4), want);
}

}  // namespace
}  // namespace rh::test
