// Figure 7: breakdown of the downtime due to VMM rejuvenation, with the
// throughput of a web server (on one of 11 VMs) sampled around the reboot.
// The reboot command is issued at t = 20 s, as in the paper.
//
// Paper anchors: warm -- web server stops at t~34 s (it keeps serving
// through dom0's shutdown), ~4 s total suspend+resume, no hardware reset,
// throughput restored after reboot (with a ~25 s dip caused by Xen's
// simultaneous-VM-creation artifact). Cold -- server stops at t~27 s,
// 43 s hardware reset, 63 s of OS shutdown+boot, and an ~8 s post-reboot
// dip from file-cache misses.
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "obs/observer.hpp"
#include "workload/http_client.hpp"
#include "workload/throughput_recorder.hpp"

namespace {

using namespace rh;
using bench::Testbed;

/// The breakdown as recorded by the observability layer: the kStep
/// children of the pass span's ladder rungs, in open order. Cross-checked
/// against the Supervisor's own step records -- the span tree and
/// SupervisorReport::steps must agree to the microsecond, or the
/// instrumentation has drifted from the control flow it claims to mirror.
std::vector<const obs::SpanRecord*> span_breakdown(
    const obs::SpanRecorder& spans, const rejuv::SupervisorReport& report) {
  obs::SpanId pass = obs::kNoSpan;
  for (std::size_t i = 0; i < spans.records().size(); ++i) {
    if (spans.records()[i].phase == obs::Phase::kPass) {
      pass = static_cast<obs::SpanId>(i);
    }
  }
  ensure(pass != obs::kNoSpan, "fig7: no pass span recorded");
  std::vector<const obs::SpanRecord*> steps;
  for (obs::SpanId rung : spans.children_of(pass)) {
    for (obs::SpanId c : spans.children_of(rung)) {
      if (spans.records()[c].phase == obs::Phase::kStep) {
        steps.push_back(&spans.records()[c]);
      }
    }
  }
  const auto& recorded = report.steps;
  ensure(steps.size() == recorded.size(),
         "fig7: span step count != recorded step count");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ensure(steps[i]->start == recorded[i].start &&
               steps[i]->end == recorded[i].end &&
               std::strcmp(steps[i]->label, recorded[i].label.c_str()) == 0,
           "fig7: span step disagrees with the recorded step");
  }
  return steps;
}

void run(rejuv::RebootKind kind) {
  Testbed tb;
  tb.host->obs().set_enabled(true);
  // 11 VMs; vm0 additionally runs the Apache server under test.
  tb.add_vm("vm0", sim::kGiB, Testbed::ServiceMix::kApache);
  for (int i = 1; i < 11; ++i) {
    tb.add_vm("vm" + std::to_string(i), sim::kGiB, Testbed::ServiceMix::kSsh);
  }
  auto& web = *tb.guests[0];
  auto* apache = static_cast<guest::ApacheService*>(web.find_service("httpd"));

  // 500 x 512 KiB documents, requested cyclically by 10 connections.
  std::vector<std::int64_t> files;
  for (int f = 0; f < 500; ++f) {
    files.push_back(web.vfs().create_file("doc" + std::to_string(f),
                                          512 * sim::kKiB));
  }
  workload::HttpClientFleet fleet(web, *apache, files, {});
  fleet.start();

  // Warm the cache, then set "t=0" 20 s before the reboot command.
  tb.sim.run_for(60 * sim::kSecond);
  const sim::SimTime t0 = tb.sim.now() - 20 * sim::kSecond;

  const auto pass = tb.rejuvenate(kind);
  const sim::SimTime restored = tb.sim.now();
  tb.sim.run_for(60 * sim::kSecond);
  fleet.stop();

  std::printf("\n--- %s ---\n", rejuv::to_string(kind));
  std::printf("  operation breakdown (reboot command at t=20 s):\n");
  for (const auto* s : span_breakdown(tb.host->obs().spans(), pass)) {
    std::printf("    %-36s t=%6.1f .. %6.1f  (%6.2f s)\n", s->label,
                sim::to_seconds(s->start - t0), sim::to_seconds(s->end - t0),
                sim::to_seconds(s->duration()));
  }

  const auto& rec = fleet.completions();
  // The server "stopped" at the start of the first >= 5 s completion gap
  // after the reboot command.
  for (sim::SimTime t = t0 + 20 * sim::kSecond; t < restored; t += sim::kSecond) {
    const auto next = rec.first_event_at_or_after(t);
    if (!next || *next - t >= 5 * sim::kSecond) {
      const auto last = rec.last_event_before(t);
      std::printf(
          "  web server stopped at t=%.1f s (paper: warm ~34 s, cold ~27 s)\n",
          sim::to_seconds(last.value_or(t) - t0));
      break;
    }
  }
  const auto report = workload::ThroughputAnalyzer::analyze(
      rec, t0 + 20 * sim::kSecond, restored, tb.sim.now());
  std::printf("  baseline %.0f req/s; restored %.0f req/s; degraded window %.0f s\n",
              report.baseline_rate, report.restored_rate,
              sim::to_seconds(report.degraded_window));

  std::printf("  throughput timeline (5 s bins, req/s):\n   ");
  const auto series =
      rec.rate_series(t0, restored + 60 * sim::kSecond, 5 * sim::kSecond);
  int col = 0;
  for (const auto& s : series) {
    std::printf(" t=%3.0f:%4.0f", sim::to_seconds(s.time - t0), s.value);
    if (++col % 6 == 0) std::printf("\n   ");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  rh::bench::print_header(
      "Figure 7: downtime breakdown + web throughput around the reboot");
  run(rejuv::RebootKind::kWarm);
  run(rejuv::RebootKind::kCold);
  return 0;
}
