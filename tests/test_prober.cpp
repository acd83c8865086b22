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
  int calls = 0;
  workload::Prober p(s, {}, [&] {
    ++calls;
    return true;
  });
  p.start();
  s.run_until(sim::kSecond);
  p.stop();
  const int at_stop = calls;
  s.run_until(10 * sim::kSecond);
  EXPECT_EQ(calls, at_stop);
  EXPECT_EQ(p.probes_sent(), static_cast<std::uint64_t>(calls));
}


// ------------------------------------------- shared ticks vs the reference
//
// workload::Prober lets probers whose ticks would fire back to back share
// one calendar event. The seeded scenarios below drive it and the
// one-event-per-prober ReferenceProber through the same schedule. Every
// probe and every scripted event appends (time, who) to a log, so the two
// runs must agree on the order of everything that happened, not only on
// what the probers recorded.

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

struct ScenarioResult {
  std::vector<ProberRecord> probers;
  std::vector<std::pair<sim::SimTime, int>> log;
  std::uint64_t events = 0;
};

/// A seeded schedule of prober starts, stops, restarts, destructions and
/// state flips. Drawn up front, so both prober types replay the same one.
struct Scenario {
  struct ProberPlan {
    int target = 0;
    sim::Duration interval = 0;
    /// Every third probe schedules a flip of `flip_target`, 0, 1 or 2
    /// intervals ahead, in turn.
    bool schedules = false;
    int flip_target = 0;
    /// At its `stop_at_call`-th probe, stops prober `stops` (and restarts
    /// it right away when `restarts`); -1 for none.
    int stops = -1;
    int stop_at_call = 0;
    bool restarts = false;
  };
  struct Burst {
    sim::SimTime at = 0;
    std::vector<int> probers;  // started back to back, in this order
    /// noise[i]: flips scheduled right after the i-th start (the last
    /// entry: after the whole burst), as (time, target).
    std::vector<std::vector<std::pair<sim::SimTime, int>>> noise;
  };
  struct Action {
    sim::SimTime at = 0;
    int prober = 0;
    enum Kind { kStop, kStopRestart, kRestart, kDestroy } kind = kStop;
  };

  std::vector<ProberPlan> probers;
  std::vector<Burst> bursts;
  std::vector<std::pair<sim::SimTime, int>> early_flips;  // scheduled first
  std::vector<Action> actions;
  int targets = 5;
};

/// A multiple of 50 ms in [lo, hi], so it can coincide with prober
/// ticks: every start and interval is a multiple of 50 ms too.
sim::SimTime tick_time(sim::Rng& rng, sim::SimTime lo, sim::SimTime hi) {
  const sim::Duration step = 50 * sim::kMillisecond;
  return step * rng.uniform_int(lo / step, hi / step);
}

Scenario draw_scenario(std::uint64_t seed) {
  sim::Rng rng(seed);
  Scenario sc;
  const sim::Duration intervals[] = {50 * sim::kMillisecond,
                                     100 * sim::kMillisecond,
                                     100 * sim::kMillisecond,
                                     200 * sim::kMillisecond};
  const auto pick = [&rng](std::int64_t n) { return rng.uniform_int(0, n - 1); };
  for (int i = 0; i < 10; ++i) {
    sc.early_flips.emplace_back(tick_time(rng, 0, kHorizon),
                                static_cast<int>(pick(sc.targets)));
  }
  const int bursts = 1 + static_cast<int>(pick(4));
  for (int b = 0; b < bursts; ++b) {
    Scenario::Burst burst;
    // Burst 0 starts at 0 with a clean pair: two probers on one interval,
    // nothing scheduled between them, neither callback scheduling before
    // they first tick together. So every scenario shares a tick.
    burst.at = b == 0 ? 0 : tick_time(rng, 0, 5 * sim::kSecond);
    const int k = b == 0 ? 2 + static_cast<int>(pick(11))
                         : 1 + static_cast<int>(pick(12));
    const sim::Duration base = intervals[pick(4)];
    for (int i = 0; i < k; ++i) {
      const bool clean = b == 0 && i < 2;
      Scenario::ProberPlan p;
      p.target = static_cast<int>(pick(sc.targets));
      p.interval = !clean && pick(5) == 0 ? intervals[pick(4)] : base;
      p.schedules = !clean && pick(4) == 0;
      p.flip_target = static_cast<int>(pick(sc.targets));
      burst.probers.push_back(static_cast<int>(sc.probers.size()));
      sc.probers.push_back(p);
      std::vector<std::pair<sim::SimTime, int>> noise;
      if (!(b == 0 && i == 0) && pick(4) == 0) {
        noise.emplace_back(burst.at + base * rng.uniform_int(0, 3),
                           static_cast<int>(pick(sc.targets)));
      }
      burst.noise.push_back(std::move(noise));
    }
    std::vector<std::pair<sim::SimTime, int>> after;
    for (int n = static_cast<int>(pick(3)); n > 0; --n) {
      after.emplace_back(burst.at + base * rng.uniform_int(0, 3),
                         static_cast<int>(pick(sc.targets)));
    }
    burst.noise.push_back(std::move(after));
    sc.bursts.push_back(std::move(burst));
  }
  const auto n = static_cast<std::int64_t>(sc.probers.size());
  // Callbacks that stop (and maybe restart) another prober mid-tick: up to
  // two disjoint (stopper, victim) pairs, so no prober is restarted from
  // inside its own probe.
  std::vector<std::int64_t> used;
  for (int pair = 0; pair < 2 && n - static_cast<std::int64_t>(used.size()) >= 2;
       ++pair) {
    const auto fresh = [&] {
      for (;;) {
        const std::int64_t i = pick(n);
        if (std::find(used.begin(), used.end(), i) == used.end()) {
          used.push_back(i);
          return i;
        }
      }
    };
    auto& stopper = sc.probers[static_cast<std::size_t>(fresh())];
    stopper.stops = static_cast<int>(fresh());
    stopper.stop_at_call = 5 + static_cast<int>(pick(20));
    stopper.restarts = pick(2) == 0;
  }
  for (int i = 0; i < 4; ++i) {
    Scenario::Action a;
    a.at = tick_time(rng, sim::kSecond, 15 * sim::kSecond);
    a.prober = static_cast<int>(pick(n));
    a.kind = static_cast<Scenario::Action::Kind>(pick(3));
    sc.actions.push_back(a);
  }
  if (pick(3) == 0) {
    sc.actions.push_back({tick_time(rng, sim::kSecond, 15 * sim::kSecond),
                          static_cast<int>(pick(n)),
                          Scenario::Action::kDestroy});
  }
  return sc;
}

template <typename P>
ScenarioResult run_scenario(const Scenario& sc) {
  sim::Simulation s;
  ScenarioResult out;
  std::vector<bool> up(static_cast<std::size_t>(sc.targets), true);
  const auto flip = [&](sim::SimTime t, int target, int id) {
    s.at(t, [&out, &up, &s, target, id] {
      up[static_cast<std::size_t>(target)] = !up[static_cast<std::size_t>(target)];
      out.log.emplace_back(s.now(), -1 - id);
    });
  };
  for (std::size_t i = 0; i < sc.early_flips.size(); ++i) {
    flip(sc.early_flips[i].first, sc.early_flips[i].second, static_cast<int>(i));
  }

  const std::size_t n = sc.probers.size();
  std::vector<std::unique_ptr<P>> probers(n);
  std::vector<int> calls(n, 0);
  out.probers.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& plan = sc.probers[i];
    probers[i] = std::make_unique<P>(
        s, typename P::Config{plan.interval}, [&, i, plan] {
          const int call = ++calls[i];
          out.log.emplace_back(s.now(), static_cast<int>(i));
          if (plan.schedules && call % 3 == 0) {
            flip(s.now() + plan.interval * (call / 3 % 3), plan.flip_target,
                 1000 + static_cast<int>(i));
          }
          if (plan.stops >= 0 && call == plan.stop_at_call) {
            auto& victim = probers[static_cast<std::size_t>(plan.stops)];
            if (victim) {
              victim->stop();
              if (plan.restarts) victim->start();
            }
          }
          return up[static_cast<std::size_t>(plan.target)];
        });
  }
  for (const auto& burst : sc.bursts) {
    s.at(burst.at, [&] {
      for (std::size_t k = 0; k <= burst.probers.size(); ++k) {
        if (k < burst.probers.size()) {
          // A stopper may have restarted it already: stop is a no-op if not.
          if (auto& p = probers[static_cast<std::size_t>(burst.probers[k])]) {
            p->stop();
            p->start();
          }
        }
        for (const auto& [t, target] : burst.noise[k]) flip(t, target, 2000);
      }
    });
  }
  for (const auto& a : sc.actions) {
    s.at(a.at, [&, a] {
      auto& p = probers[static_cast<std::size_t>(a.prober)];
      out.log.emplace_back(s.now(), -5000 - a.prober);
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
          s.after(150 * sim::kMillisecond, [&p] {
            if (p) {
              p->stop();
              p->start();
            }
          });
          break;
        case Scenario::Action::kDestroy:
          out.probers[static_cast<std::size_t>(a.prober)] = record(*p);
          p.reset();
          break;
      }
    });
  }
  s.run_until(kHorizon);
  out.events = s.executed_events();
  for (std::size_t i = 0; i < n; ++i) {
    if (probers[i]) out.probers[i] = record(*probers[i]);
  }
  return out;
}

TEST(ProberShared, MatchesOneEventPerProberOnSeededScenarios) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    const Scenario sc = draw_scenario(seed);
    const ScenarioResult want = run_scenario<ReferenceProber>(sc);
    const ScenarioResult got = run_scenario<workload::Prober>(sc);
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
    EXPECT_EQ(got.log, want.log);
    // Burst 0's clean pair shares at least its first tick.
    EXPECT_LT(got.events, want.events);
  }
}

/// Executed events of `n` probers started back to back and run 10 s.
template <typename P>
std::uint64_t events_of_a_burst(int n) {
  sim::Simulation s;
  std::vector<std::unique_ptr<P>> probers;
  for (int i = 0; i < n; ++i) {
    probers.push_back(std::make_unique<P>(s, typename P::Config{}, [] { return true; }));
    probers.back()->start();
  }
  s.run_until(10 * sim::kSecond);
  for (const auto& p : probers) EXPECT_EQ(p->probes_sent(), 101U);
  return s.executed_events();
}

TEST(ProberShared, ProbersStartedTogetherShareOneEvent) {
  EXPECT_EQ(events_of_a_burst<ReferenceProber>(11), 1100U);
  EXPECT_EQ(events_of_a_burst<workload::Prober>(11), 100U);
}

TEST(ProberShared, CallbackThatSchedulesSplitsTheGroup) {
  // At b's third probe (200 ms) its callback flips c's state one interval
  // ahead. b's and c's own next ticks would have been scheduled behind
  // the flip, so c sees it at 300 ms, not one tick later.
  const auto run = [](auto* tag) {
    using P = std::remove_pointer_t<decltype(tag)>;
    sim::Simulation s;
    bool c_up = true;
    int b_calls = 0;
    std::vector<sim::SimTime> a_probes;
    P a(s, {}, [&] {
      a_probes.push_back(s.now());
      return true;
    });
    P b(s, {}, [&] {
      if (++b_calls == 3) s.after(100 * sim::kMillisecond, [&] { c_up = false; });
      return true;
    });
    P c(s, {}, [&] { return c_up; });
    a.start();
    b.start();
    c.start();
    s.run_until(sim::kSecond);
    EXPECT_EQ(a_probes.size(), 11U);
    return std::make_pair(c.down_at_after(0), s.executed_events());
  };
  const auto want = run(static_cast<ReferenceProber*>(nullptr));
  const auto got = run(static_cast<workload::Prober*>(nullptr));
  ASSERT_TRUE(want.first.has_value());
  EXPECT_EQ(*want.first, 300 * sim::kMillisecond);
  EXPECT_EQ(got.first, want.first);
  // One event for all three until the split at 200 ms; then a alone and
  // {b, c} together: 2 + 8 * 2 ticks, plus the flip.
  EXPECT_EQ(want.second, 31U);
  EXPECT_EQ(got.second, 19U);
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

TEST(ProberShared, LastMemberMayStopTheSimulation) {
  sim::Simulation s;
  workload::Prober a(s, {}, [] { return true; });
  workload::Prober b(s, {}, [&] {
    if (s.now() == 500 * sim::kMillisecond) s.stop();
    return true;
  });
  a.start();
  b.start();
  s.run_until(sim::kSecond);
  EXPECT_TRUE(s.stopped());
  EXPECT_EQ(s.now(), 500 * sim::kMillisecond);
  EXPECT_EQ(a.probes_sent(), 6U);
  EXPECT_EQ(b.probes_sent(), 6U);
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
