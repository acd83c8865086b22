// Property-style parameterized sweeps over the system's core invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>

#include "mm/balloon.hpp"
#include "net/tcp.hpp"
#include "test_util.hpp"
#include "workload/prober.hpp"

namespace rh::test {
namespace {

// ---------------------------------------------------------------------
// Property 1: the warm-VM reboot preserves every byte of every VM image,
// for any number of VMs and any memory contents.
// ---------------------------------------------------------------------

class WarmPreservation : public ::testing::TestWithParam<int> {};

TEST_P(WarmPreservation, AllTokensSurvive) {
  const int vms = GetParam();
  HostFixture fx(vms);
  sim::Rng rng(static_cast<std::uint64_t>(vms) * 977 + 5);
  // Random tokens at random guest pages, tracked by (guest, pfn).
  std::vector<std::tuple<int, mm::Pfn, hw::ContentToken>> written;
  for (int v = 0; v < vms; ++v) {
    const DomainId id = fx.guests[static_cast<std::size_t>(v)]->domain_id();
    for (int k = 0; k < 64; ++k) {
      const auto pfn = static_cast<mm::Pfn>(rng.uniform_int(1, 262143));
      const auto tok = rng.next() | 1;
      fx.host->vmm().guest_write(id, pfn, tok);
      written.emplace_back(v, pfn, tok);
    }
  }
  fx.rejuvenate(rejuv::RebootKind::kWarm);
  for (const auto& [v, pfn, tok] : written) {
    const DomainId id = fx.guests[static_cast<std::size_t>(v)]->domain_id();
    // Last write to a pfn wins; re-read and compare against a replay.
    (void)tok;
    ASSERT_NE(id, kNoDomain);
  }
  // Replay to compute each pfn's final expected token, then verify.
  std::map<std::pair<int, mm::Pfn>, hw::ContentToken> expected;
  for (const auto& [v, pfn, tok] : written) expected[{v, pfn}] = tok;
  for (const auto& [key, tok] : expected) {
    const DomainId id =
        fx.guests[static_cast<std::size_t>(key.first)]->domain_id();
    EXPECT_EQ(fx.host->vmm().guest_read(id, key.second), tok);
  }
}

INSTANTIATE_TEST_SUITE_P(VmCounts, WarmPreservation,
                         ::testing::Values(1, 2, 4, 7));

// ---------------------------------------------------------------------
// Property 2: frame-allocator conservation under random operations.
// ---------------------------------------------------------------------

class AllocatorChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorChaos, ConservationAndExclusivity) {
  sim::Rng rng(GetParam());
  constexpr std::int64_t kFrames = 4096;
  mm::FrameAllocator alloc(kFrames);
  std::map<DomainId, std::vector<hw::FrameNumber>> owned;
  DomainId next_id = 1;
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      const auto want = rng.uniform_int(1, 64);
      if (want <= alloc.free_frames()) {
        const DomainId id = next_id++;
        owned[id] = expand_runs(alloc.allocate(id, want));
      }
    } else if (roll < 0.8 && !owned.empty()) {
      auto it = owned.begin();
      std::advance(it, static_cast<long>(rng.index(owned.size())));
      alloc.release_all(it->first);
      owned.erase(it);
    } else if (!owned.empty()) {
      auto it = owned.begin();
      std::advance(it, static_cast<long>(rng.index(owned.size())));
      if (!it->second.empty()) {
        alloc.release(it->second.back());
        it->second.pop_back();
      }
    }
    // Invariants: conservation + exclusive ownership.
    std::int64_t owned_total = 0;
    for (const auto& [id, frames] : owned) {
      owned_total += static_cast<std::int64_t>(frames.size());
      ASSERT_EQ(alloc.owned_frames(id),
                static_cast<std::int64_t>(frames.size()));
    }
    ASSERT_EQ(alloc.free_frames() + owned_total, kFrames);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorChaos,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// ---------------------------------------------------------------------
// Property 3: P2M stays a partial injection under balloon churn.
// ---------------------------------------------------------------------

class BalloonChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalloonChaos, P2mStaysInjective) {
  sim::Rng rng(GetParam());
  mm::FrameAllocator alloc(8192);
  mm::P2mTable p2m(1024);
  const auto frames = expand_runs(alloc.allocate(1, 1024));
  for (mm::Pfn p = 0; p < 1024; ++p) p2m.add(p, frames[static_cast<std::size_t>(p)]);
  mm::BalloonDriver balloon(1, alloc, p2m);
  alloc.allocate(2, 2048);  // competing consumer

  for (int step = 0; step < 200; ++step) {
    if (rng.chance(0.5)) {
      balloon.inflate(rng.uniform_int(1, 200));
    } else {
      try {
        balloon.deflate(rng.uniform_int(1, 200));
      } catch (const mm::OutOfMachineMemory&) {
        // Legal under contention; the table must still be consistent.
      }
    }
    std::set<hw::FrameNumber> seen;
    for (mm::Pfn p = 0; p < p2m.pfn_count(); ++p) {
      const auto mfn = p2m.mfn_of(p);
      if (mfn == mm::kNoFrame) continue;
      ASSERT_TRUE(seen.insert(mfn).second) << "duplicate MFN mapping";
      ASSERT_EQ(alloc.owner_of(mfn), 1);
    }
    ASSERT_EQ(static_cast<std::int64_t>(seen.size()), p2m.populated());
    ASSERT_EQ(alloc.owned_frames(1), p2m.populated());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalloonChaos,
                         ::testing::Values(7u, 99u, 123456u));

// ---------------------------------------------------------------------
// Property 4: a TCP session survives an outage iff it ends before the
// client timeout -- swept across outage durations.
// ---------------------------------------------------------------------

// CTest names each case after gtest's byte dump of the parameter, so the
// struct must have no padding: padding bytes are uninitialised and would put
// stack garbage into the test name. Hence `survives` is int-wide (1 or 0).
struct TcpCase {
  int outage_s;
  int timeout_s;
  int survives;
};
static_assert(std::has_unique_object_representations_v<TcpCase>);

class TcpSurvival : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpSurvival, MatchesPrediction) {
  const TcpCase c = GetParam();
  sim::Simulation s;
  bool server_up = true;
  net::TcpConnection::Config cfg;
  cfg.client_timeout = static_cast<sim::Duration>(c.timeout_s) * sim::kSecond;
  net::TcpConnection conn(s, cfg, [&] {
    return server_up ? net::SegmentOutcome::kAck : net::SegmentOutcome::kDropped;
  });
  conn.open();
  s.run_until(5 * sim::kSecond);
  server_up = false;
  s.after(static_cast<sim::Duration>(c.outage_s) * sim::kSecond,
          [&] { server_up = true; });
  s.run_until(s.now() + 3 * sim::kMinute);
  EXPECT_EQ(conn.alive(), c.survives != 0)
      << "outage " << c.outage_s << " s, timeout " << c.timeout_s << " s";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpSurvival,
    ::testing::Values(TcpCase{10, 60, true},    // short outage
                      TcpCase{40, 60, true},    // warm-reboot scale
                      TcpCase{50, 60, true},    // just inside
                      TcpCase{70, 60, false},   // just outside
                      TcpCase{400, 60, false},  // saved-reboot scale
                      TcpCase{400, 0, true}));  // no client timeout

// ---------------------------------------------------------------------
// Property 5: downtime ordering warm < cold < saved holds at every VM
// count (the global shape of Fig. 6).
// ---------------------------------------------------------------------

class DowntimeOrdering : public ::testing::TestWithParam<int> {};

TEST_P(DowntimeOrdering, WarmBeatsColdBeatsSaved) {
  const int n = GetParam();
  auto downtime = [n](rejuv::RebootKind kind) {
    HostFixture fx(n);
    auto& g = *fx.guests[0];
    auto* ssh = g.find_service("sshd");
    workload::Prober prober(fx.sim, {},
                            [&] { return g.service_reachable(*ssh); });
    prober.start();
    fx.sim.run_for(sim::kSecond);
    const sim::SimTime start = fx.sim.now();
    fx.rejuvenate(kind);
    fx.sim.run_for(5 * sim::kSecond);
    prober.stop();
    return prober.outage_after(start).value_or(0);
  };
  const auto warm = downtime(rejuv::RebootKind::kWarm);
  const auto cold = downtime(rejuv::RebootKind::kCold);
  const auto saved = downtime(rejuv::RebootKind::kSaved);
  EXPECT_LT(warm, cold);
  EXPECT_LT(cold, saved);
  // Warm stays (near-)flat: always within a few seconds of the n=1 value.
  EXPECT_NEAR(sim::to_seconds(warm), 42.0, 4.0);
}

INSTANTIATE_TEST_SUITE_P(VmCounts, DowntimeOrdering, ::testing::Values(1, 3, 6));

// ---------------------------------------------------------------------
// Property 6: the paper's qualitative results are robust to calibration:
// scale the key device constants by +/-30 % and the ordering
// warm < cold < saved, the near-flatness of warm, and the positivity of
// r(n) all persist.
// ---------------------------------------------------------------------

class CalibrationRobustness : public ::testing::TestWithParam<double> {};

TEST_P(CalibrationRobustness, OrderingSurvivesDeviceVariation) {
  const double scale = GetParam();
  Calibration calib;
  calib.machine.disk.sequential_read_bps *= scale;
  calib.machine.disk.sequential_write_bps *= scale;
  calib.xen_save_bps *= scale;
  calib.xen_restore_bps *= scale;
  calib.machine.bios.memory_check_per_gib = static_cast<sim::Duration>(
      calib.machine.bios.memory_check_per_gib * scale);
  calib.dom0_userland_boot =
      static_cast<sim::Duration>(calib.dom0_userland_boot * scale);
  calib.scrub_bps *= scale;

  auto downtime = [&calib](rejuv::RebootKind kind, int n) {
    HostFixture fx(n, calib);
    auto& g = *fx.guests[0];
    auto* ssh = g.find_service("sshd");
    workload::Prober prober(fx.sim, {},
                            [&] { return g.service_reachable(*ssh); });
    prober.start();
    fx.sim.run_for(sim::kSecond);
    const sim::SimTime start = fx.sim.now();
    fx.rejuvenate(kind);
    fx.sim.run_for(5 * sim::kSecond);
    return sim::to_seconds(prober.outage_after(start).value_or(0));
  };

  const double warm2 = downtime(rejuv::RebootKind::kWarm, 2);
  const double warm5 = downtime(rejuv::RebootKind::kWarm, 5);
  const double cold5 = downtime(rejuv::RebootKind::kCold, 5);
  const double saved5 = downtime(rejuv::RebootKind::kSaved, 5);
  // Ordering holds at every calibration point.
  EXPECT_LT(warm5, cold5);
  EXPECT_LT(cold5, saved5);
  // Warm stays near-flat in n.
  EXPECT_NEAR(warm5, warm2, 3.0);
  // r(n) stays positive.
  EXPECT_GT(cold5 - warm5, 10.0);
}

INSTANTIATE_TEST_SUITE_P(Scales, CalibrationRobustness,
                         ::testing::Values(0.7, 1.0, 1.3));

// ---------------------------------------------------------------------
// Property 7: disk-backed save/restore round-trips arbitrary images.
// ---------------------------------------------------------------------

class SaveRestoreRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaveRestoreRoundTrip, RandomImagesSurviveTheDisk) {
  sim::Rng rng(GetParam());
  HostFixture fx(1);
  auto& vmm = fx.host->vmm();
  auto& g = *fx.guests[0];
  std::map<mm::Pfn, hw::ContentToken> expected;
  for (int k = 0; k < 128; ++k) {
    const auto pfn = static_cast<mm::Pfn>(rng.uniform_int(1, 262143));
    const auto tok = rng.next() | 1;
    vmm.guest_write(g.domain_id(), pfn, tok);
    expected[pfn] = tok;
  }
  bool saved = false;
  vmm.save_domain_to_disk(g.domain_id(), fx.host->images(), [&] { saved = true; });
  run_until_flag(fx.sim, saved);
  bool restored = false;
  DomainId nid = kNoDomain;
  vmm.restore_domain_from_disk("vm0", fx.host->images(), &g, [&](DomainId d) {
    nid = d;
    restored = true;
  });
  run_until_flag(fx.sim, restored);
  for (const auto& [pfn, tok] : expected) {
    ASSERT_EQ(vmm.guest_read(nid, pfn), tok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaveRestoreRoundTrip,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace rh::test
