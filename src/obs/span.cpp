#include "obs/span.hpp"

#include "simcore/check.hpp"

namespace rh::obs {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kPass: return "pass";
    case Phase::kStep: return "step";
    case Phase::kAdmission: return "admission";
    case Phase::kDom0Shutdown: return "dom0-shutdown";
    case Phase::kQuickReload: return "quick-reload";
    case Phase::kVmmInit: return "vmm-init";
    case Phase::kHardwareReset: return "hardware-reset";
    case Phase::kCacheRewarm: return "cache-rewarm";
    case Phase::kPreCopyRound: return "pre-copy-round";
    case Phase::kStopAndCopy: return "stop-and-copy";
    case Phase::kMigration: return "migration";
    case Phase::kLadderRung: return "ladder-rung";
    case Phase::kRollingPass: return "rolling-pass";
    case Phase::kMicroRecovery: return "micro-recovery";
    case Phase::kOther: return "other";
  }
  return "unknown";
}

SpanId SpanRecorder::open(sim::SimTime now, Phase phase, std::string_view label,
                          SpanId parent) {
  ensure(parent == kNoSpan || parent < records_.size(),
         "SpanRecorder::open: unknown parent span");
  SpanRecord r;
  r.start = now;
  r.parent = parent;
  r.phase = phase;
  r.set_label(label);
  records_.push_back(r);
  ++open_count_;
  return static_cast<SpanId>(records_.size() - 1);
}

void SpanRecorder::close(SpanId id, sim::SimTime now) {
  ensure(id < records_.size(), "SpanRecorder::close: unknown span");
  SpanRecord& r = records_[id];
  ensure(r.open(), "SpanRecorder::close: span already closed");
  ensure(now >= r.start, "SpanRecorder::close: end before start");
  r.end = now;
  --open_count_;
}

SpanId SpanRecorder::complete(sim::SimTime start, sim::SimTime end, Phase phase,
                              std::string_view label, SpanId parent) {
  ensure(end >= start, "SpanRecorder::complete: end before start");
  const SpanId id = open(start, phase, label, parent);
  records_[id].end = end;
  --open_count_;
  return id;
}

std::vector<SpanId> SpanRecorder::children_of(SpanId parent) const {
  std::vector<SpanId> out;
  for (SpanId i = 0; i < records_.size(); ++i) {
    if (records_[i].parent == parent) out.push_back(i);
  }
  return out;
}

}  // namespace rh::obs
