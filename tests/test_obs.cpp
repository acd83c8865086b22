// Observability subsystem tests (ctest label `obs`): event ring bounds,
// span-nesting invariants, metrics-merge determinism across thread
// counts, the zero-work-when-disabled contract, and the span tree's
// agreement with the Supervisor's step records.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "rejuv/supervisor.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

// ------------------------------------------------------------ events

TEST(EventRing, RetainsEverythingBelowTheCap) {
  obs::EventRing ring(2);
  for (std::size_t i = 0; i < 100; ++i) {
    obs::TraceEvent& e = ring.push();
    e.time = static_cast<sim::SimTime>(i);
    e.set_label("evt");
  }
  EXPECT_EQ(ring.size(), std::size_t{100});
  EXPECT_EQ(ring.dropped(), 0u);
  sim::SimTime expect = 0;
  ring.for_each([&](const obs::TraceEvent& e) { EXPECT_EQ(e.time, expect++); });
  EXPECT_EQ(expect, 100);
}

TEST(EventRing, RecyclesTheOldestSlabAtTheCap) {
  obs::EventRing ring(2);
  const std::size_t n = 3 * obs::EventRing::kSlabEvents;
  for (std::size_t i = 0; i < n; ++i) {
    ring.push().time = static_cast<sim::SimTime>(i);
  }
  // Two slabs retained, one recycled: the oldest kSlabEvents are gone.
  EXPECT_EQ(ring.size(), 2 * obs::EventRing::kSlabEvents);
  EXPECT_EQ(ring.dropped(), obs::EventRing::kSlabEvents);
  sim::SimTime first = -1;
  bool got_first = false;
  ring.for_each([&](const obs::TraceEvent& e) {
    if (!got_first) {
      first = e.time;
      got_first = true;
    }
  });
  EXPECT_EQ(first, static_cast<sim::SimTime>(obs::EventRing::kSlabEvents));
}

TEST(EventRing, RecyclingStatsMakeTraceLossObservable) {
  obs::EventRing ring(2);
  EXPECT_EQ(ring.slabs(), 0u);  // slabs allocate lazily
  ring.push();
  EXPECT_EQ(ring.slabs(), 1u);
  EXPECT_EQ(ring.recycled_slabs(), 0u);
  const std::size_t n = 4 * obs::EventRing::kSlabEvents;
  for (std::size_t i = 1; i < n; ++i) ring.push();
  EXPECT_EQ(ring.slabs(), 2u);  // bounded by the cap
  EXPECT_EQ(ring.recycled_slabs(), 2u);
  EXPECT_EQ(ring.dropped(), 2 * obs::EventRing::kSlabEvents);
  ring.clear();
  EXPECT_EQ(ring.recycled_slabs(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Observer, MirrorsRingStatsIntoMetricsEvenWhenDisabled) {
  obs::Observer obs;
  obs.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    obs.emit(i, obs::Category::kHost, obs::EventKind::kMark, "m");
  }
  obs.mirror_ring_stats();
  EXPECT_EQ(obs.metrics().counter("obs.ring_events"), 3u);
  EXPECT_EQ(obs.metrics().counter("obs.ring_dropped"), 0u);
  EXPECT_EQ(obs.metrics().counter("obs.ring_slabs"), 1u);
  EXPECT_EQ(obs.metrics().counter("obs.ring_recycled_slabs"), 0u);
  // Exporters collect with emission off (scraping does not imply
  // observing): the mirror must not be gated on enabled().
  obs::Observer quiet;
  quiet.mirror_ring_stats();
  EXPECT_EQ(quiet.metrics().counter("obs.ring_events"), 0u);
}

TEST(TraceEvent, LabelIsTruncatedNotOverrun) {
  obs::TraceEvent e;
  e.set_label(std::string(100, 'x'));
  EXPECT_EQ(std::strlen(e.label), sizeof e.label - 1);
}

// ------------------------------------------------------------- spans

TEST(SpanRecorder, NestingAndChildLookup) {
  obs::SpanRecorder rec;
  const auto pass = rec.open(10, obs::Phase::kPass, "pass");
  const auto a = rec.open(10, obs::Phase::kStep, "suspend", pass);
  rec.close(a, 20);
  const auto b = rec.open(20, obs::Phase::kStep, "resume", pass);
  rec.close(b, 30);
  rec.close(pass, 30);
  EXPECT_EQ(rec.open_count(), std::size_t{0});
  const auto kids = rec.children_of(pass);
  ASSERT_EQ(kids.size(), std::size_t{2});
  EXPECT_STREQ(rec.records()[kids[0]].label, "suspend");
  EXPECT_STREQ(rec.records()[kids[1]].label, "resume");
  EXPECT_EQ(rec.records()[pass].duration(), 20);
}

TEST(SpanRecorder, RejectsDoubleClose) {
  obs::SpanRecorder rec;
  const auto id = rec.open(0, obs::Phase::kStep, "s");
  rec.close(id, 1);
  EXPECT_THROW(rec.close(id, 2), InvariantViolation);
}

TEST(SpanRecorder, RejectsUnknownSpanAndParent) {
  obs::SpanRecorder rec;
  EXPECT_THROW(rec.close(5, 1), InvariantViolation);
  EXPECT_THROW(rec.open(0, obs::Phase::kStep, "s", 7), InvariantViolation);
}

TEST(SpanRecorder, RejectsNonMonotonicClose) {
  obs::SpanRecorder rec;
  const auto id = rec.open(10, obs::Phase::kStep, "s");
  EXPECT_THROW(rec.close(id, 9), InvariantViolation);
  EXPECT_THROW(rec.complete(10, 9, obs::Phase::kStep, "c"), InvariantViolation);
}

// ---------------------------------------------------------- observer

TEST(Observer, DisabledDoesNoWorkAndNoBookkeeping) {
  obs::Observer obs;
  ASSERT_FALSE(obs.enabled());
  obs.emit(1, obs::Category::kVmm, obs::EventKind::kMark, "x");
  const auto id = obs.span_open(1, obs::Phase::kStep, "x");
  EXPECT_EQ(id, obs::kNoSpan);
  obs.span_close(id, 2);  // no-op, must not throw
  obs.span_complete(1, 2, obs::Phase::kStep, "x");
  obs.set_ambient(42);  // refuses: ambient state only moves when enabled
  ++obs.metrics().counter("allowed");  // registry itself is always usable
  EXPECT_EQ(obs.events().size(), std::size_t{0});
  EXPECT_TRUE(obs.spans().records().empty());
  EXPECT_EQ(obs.ambient(), obs::kNoSpan);
}

TEST(Observer, AmbientParentIsSaveSetRestore) {
  obs::Observer obs;
  obs.set_enabled(true);
  const auto pass = obs.span_open(0, obs::Phase::kPass, "pass");
  const auto outer = obs.ambient();
  obs.set_ambient(pass);
  const auto child = obs.span_open(1, obs::Phase::kQuickReload, "reload");
  EXPECT_EQ(obs.spans().records()[child].parent, pass);
  obs.span_close(child, 2);
  obs.set_ambient(outer);
  const auto sibling = obs.span_open(3, obs::Phase::kOther, "after");
  EXPECT_EQ(obs.spans().records()[sibling].parent, obs::kNoSpan);
}

// ----------------------------------------------------------- metrics

TEST(MetricsRegistry, MergesByNameAndAppendsUnknowns) {
  obs::MetricsRegistry a;
  a.counter("x") = 3;
  a.gauge("g") = 1.5;
  obs::MetricsRegistry b;
  b.counter("x") = 4;
  b.counter("y") = 1;
  b.gauge("g") = 2.0;
  a.merge(b);
  EXPECT_EQ(a.counter_value("x"), 7u);
  EXPECT_EQ(a.counter_value("y"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 3.5);
  ASSERT_EQ(a.counters().size(), std::size_t{2});
  EXPECT_EQ(a.counters()[1].name, "y");  // appended in b's order
}

TEST(MetricsRegistry, NameTypeClashThrows) {
  obs::MetricsRegistry m;
  ++m.counter("latency");
  EXPECT_THROW((void)m.histogram("latency"), InvariantViolation);
}

/// The replication body used by the determinism tests: metrics whose
/// merged value depends on merge order (histogram/summary) and whose
/// registration order varies across replications.
exp::ReplicationResult metrics_body(const exp::ReplicationContext& ctx) {
  obs::MetricsRegistry m;
  if (ctx.replication_index % 2 == 1) ++m.counter("odd-first");
  ++m.counter("runs");
  m.histogram("lat").add(static_cast<sim::Duration>(1 + ctx.seed % 997));
  m.summary("load").add(static_cast<double>(ctx.seed % 89) / 7.0);
  exp::ReplicationResult out;
  out.values = {0.0};
  out.metrics = std::move(m);
  return out;
}

TEST(MetricsRegistry, GridMergeIsThreadCountInvariant) {
  exp::GridSpec spec;
  spec.points = 2;
  spec.replications = 8;
  spec.root_seed = 123;
  spec.threads = 1;
  const auto one = exp::run_grid(spec, metrics_body);
  spec.threads = 4;
  const auto four = exp::run_grid(spec, metrics_body);
  const auto seq = exp::run_grid_sequential(spec, metrics_body);
  for (std::size_t p = 0; p < spec.points; ++p) {
    const auto& a = one.point(p).merged_metrics();
    const auto& b = four.point(p).merged_metrics();
    const auto& c = seq.point(p).merged_metrics();
    for (const auto* m : {&b, &c}) {
      ASSERT_EQ(a.counters().size(), m->counters().size());
      for (std::size_t i = 0; i < a.counters().size(); ++i) {
        EXPECT_EQ(a.counters()[i].name, m->counters()[i].name);
        EXPECT_EQ(a.counters()[i].value, m->counters()[i].value);
      }
      ASSERT_EQ(a.histograms().size(), m->histograms().size());
      for (std::size_t i = 0; i < a.histograms().size(); ++i) {
        EXPECT_EQ(a.histograms()[i].value.count(),
                  m->histograms()[i].value.count());
        // Bitwise: merge order is replication-index order on every path.
        EXPECT_EQ(a.histograms()[i].value.mean(),
                  m->histograms()[i].value.mean());
      }
      ASSERT_EQ(a.summaries().size(), m->summaries().size());
      for (std::size_t i = 0; i < a.summaries().size(); ++i) {
        EXPECT_EQ(a.summaries()[i].value.mean(), m->summaries()[i].value.mean());
        EXPECT_EQ(a.summaries()[i].value.stddev(),
                  m->summaries()[i].value.stddev());
      }
    }
  }
  EXPECT_EQ(one.point(0).merged_metrics().counter_value("runs"), 8u);
}

// ------------------------------------ integration: fault-free pass

TEST(DriverSpans, StepChildrenMatchBespokeBreakdown) {
  HostFixture fx(2);
  fx.host->obs().set_enabled(true);
  const auto report = fx.rejuvenate(rejuv::RebootKind::kWarm);
  const auto& spans = fx.host->obs().spans();
  EXPECT_EQ(spans.open_count(), std::size_t{0});
  obs::SpanId pass = obs::kNoSpan;
  for (std::size_t i = 0; i < spans.records().size(); ++i) {
    if (spans.records()[i].phase == obs::Phase::kPass) {
      pass = static_cast<obs::SpanId>(i);
    }
  }
  ASSERT_NE(pass, obs::kNoSpan);
  // Steps hang off the ladder rung that ran them.
  std::vector<const obs::SpanRecord*> steps;
  for (const auto rung : spans.children_of(pass)) {
    for (const auto c : spans.children_of(rung)) {
      if (spans.records()[c].phase == obs::Phase::kStep) {
        steps.push_back(&spans.records()[c]);
      }
    }
  }
  const auto& recorded = report.steps;
  ASSERT_EQ(steps.size(), recorded.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i]->start, recorded[i].start);
    EXPECT_EQ(steps[i]->end, recorded[i].end);
    EXPECT_STREQ(steps[i]->label, recorded[i].label.c_str());
  }
  // The pipeline's inner phases hang off the pass span too (via the
  // ambient-parent chain): the quick reload and the VMM re-init under it.
  bool found_reload = false;
  for (const auto& r : spans.records()) {
    if (r.phase == obs::Phase::kQuickReload) {
      found_reload = true;
      EXPECT_FALSE(r.open());
    }
  }
  EXPECT_TRUE(found_reload);
}

TEST(DriverSpans, DisabledObserverRecordsNothing) {
  HostFixture fx(1);
  fx.rejuvenate(rejuv::RebootKind::kWarm);
  EXPECT_TRUE(fx.host->obs().spans().records().empty());
  EXPECT_EQ(fx.host->obs().events().size(), std::size_t{0});
  EXPECT_TRUE(fx.host->obs().metrics().empty());
}

// ------------------------------------------- integration: supervisor

TEST(SupervisorObs, CleanPassRecordsPassRungAndMetrics) {
  HostFixture fx(2);
  fx.host->obs().set_enabled(true);
  rejuv::Supervisor sup(*fx.host, fx.guest_ptrs(), {});
  bool done = false;
  sup.run([&done](const rejuv::SupervisorReport&) { done = true; });
  run_until_flag(fx.sim, done, 4 * sim::kHour);
  const auto& obs = fx.host->obs();
  EXPECT_EQ(obs.spans().open_count(), std::size_t{0});
  bool pass = false, rung = false;
  for (const auto& r : obs.spans().records()) {
    pass |= r.phase == obs::Phase::kPass;
    rung |= r.phase == obs::Phase::kLadderRung;
  }
  EXPECT_TRUE(pass);
  EXPECT_TRUE(rung);
  EXPECT_EQ(obs.metrics().counter_value("supervisor.passes"), 1u);
  EXPECT_EQ(obs.metrics().counter_value("supervisor.vms_resumed"), 2u);
}

TEST(SupervisorObs, RecoveryActionsAreMirroredAsTypedEvents) {
  HostFixture fx(2);
  fx.host->obs().set_enabled(true);
  fx.host->configure_faults(fault::FaultConfig::uniform(1.0));
  rejuv::Supervisor sup(*fx.host, fx.guest_ptrs(), {});
  bool done = false;
  sup.run([&done](const rejuv::SupervisorReport&) { done = true; });
  run_until_flag(fx.sim, done, 12 * sim::kHour);
  const auto& obs = fx.host->obs();
  // Every recovery action of the report is mirrored into the event ring...
  std::size_t typed = 0;
  obs.events().for_each([&](const obs::TraceEvent& e) {
    if (e.kind == obs::EventKind::kRecovery) ++typed;
  });
  EXPECT_EQ(typed, sup.report().recoveries.size());
  EXPECT_GT(typed, std::size_t{0});
  // ...and counted per action in the registry.
  std::uint64_t counted = 0;
  for (const auto& c : obs.metrics().counters()) {
    if (c.name.rfind("supervisor.recovery.", 0) == 0) counted += c.value;
  }
  EXPECT_EQ(counted, typed);
}

// --------------------------------------------------------- exporters

TEST(Exporters, ChromeTraceAndMetricsJsonSmoke) {
  obs::Observer obs;
  obs.set_enabled(true);
  const auto pass = obs.span_open(1'000'000, obs::Phase::kPass, "pass");
  obs.set_ambient(pass);
  obs.span_complete(1'100'000, 1'200'000, obs::Phase::kStep,
                    "on-memory suspend");
  obs.emit(1'150'000, obs::Category::kSupervisor, obs::EventKind::kRecovery,
           "step-retry");
  obs.span_close(pass, 2'000'000);
  ++obs.metrics().counter("supervisor.passes");
  obs.metrics().histogram("pass_us").add(1'000'000);

  std::ostringstream trace;
  obs::write_chrome_trace(trace, obs, /*pid=*/3, "host3");
  const std::string t = trace.str();
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(t.find("step-retry"), std::string::npos);
  EXPECT_NE(t.find("host3"), std::string::npos);
  EXPECT_EQ(t.front(), '{');
  EXPECT_EQ(t.back(), '\n');

  std::ostringstream metrics;
  obs::write_metrics_json(metrics, obs.metrics());
  const std::string m = metrics.str();
  EXPECT_NE(m.find("supervisor.passes"), std::string::npos);
  EXPECT_NE(m.find("pass_us"), std::string::npos);
}

}  // namespace
}  // namespace rh::test
