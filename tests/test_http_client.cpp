// Closed-loop HTTP fleet + throughput analysis.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workload/http_client.hpp"
#include "workload/throughput_recorder.hpp"

namespace rh::test {
namespace {

struct WebRig {
  HostFixture fx{0};
  guest::GuestOs* g = nullptr;
  guest::ApacheService* apache = nullptr;
  std::vector<std::int64_t> files;

  explicit WebRig(int file_count = 50, sim::Bytes file_size = 512 * sim::kKiB) {
    auto os = std::make_unique<guest::GuestOs>(*fx.host, "web", sim::kGiB);
    os->add_service(std::make_unique<guest::SshService>());
    apache = &static_cast<guest::ApacheService&>(
        os->add_service(std::make_unique<guest::ApacheService>()));
    for (int f = 0; f < file_count; ++f) {
      files.push_back(os->vfs().create_file(
          std::string("f").append(std::to_string(f)), file_size));
    }
    g = os.get();
    fx.guests.push_back(std::move(os));
    bool up = false;
    g->create_and_boot([&up] { up = true; });
    run_until_flag(fx.sim, up);
  }
};

TEST(HttpClient, ClosedLoopThroughputIsNicBound) {
  WebRig rig;
  workload::HttpClientFleet fleet(*rig.g, *rig.apache, rig.files, {});
  fleet.start();
  rig.fx.sim.run_for(30 * sim::kSecond);
  fleet.stop();
  // Once cached, 512 KiB responses over a 117 MB/s NIC -> ~220 req/s.
  const double rate = fleet.completions().rate_between(
      rig.fx.sim.now() - 10 * sim::kSecond, rig.fx.sim.now());
  EXPECT_NEAR(rate, 220.0, 15.0);
  EXPECT_GT(fleet.requests_ok(), std::uint64_t{1000});
  EXPECT_EQ(fleet.requests_failed(), std::uint64_t{0});
}

TEST(HttpClient, OnceModeServesEachFileExactlyOnce) {
  WebRig rig(100);
  workload::HttpClientFleet fleet(*rig.g, *rig.apache, rig.files,
                                  {.cycle = false});
  fleet.start();
  rig.fx.sim.run_for(sim::kMinute);
  EXPECT_TRUE(fleet.finished());
  EXPECT_EQ(fleet.requests_ok(), std::uint64_t{100});
  EXPECT_EQ(rig.apache->requests_served(), std::uint64_t{100});
}

TEST(HttpClient, RetriesThroughAnOutage) {
  WebRig rig;
  workload::HttpClientFleet fleet(*rig.g, *rig.apache, rig.files, {});
  fleet.start();
  rig.fx.sim.run_for(10 * sim::kSecond);
  // Stop apache for 5 s: requests fail and are retried, then flow resumes.
  bool stopped = false;
  rig.apache->stop(*rig.g, [&] { stopped = true; });
  run_until_flag(rig.fx.sim, stopped);
  rig.fx.sim.run_for(5 * sim::kSecond);
  const auto failed_during = fleet.requests_failed();
  EXPECT_GT(failed_during, std::uint64_t{10});
  bool started = false;
  rig.apache->start(*rig.g, [&] { started = true; });
  run_until_flag(rig.fx.sim, started);
  const auto ok_before = fleet.requests_ok();
  rig.fx.sim.run_for(5 * sim::kSecond);
  fleet.stop();
  EXPECT_GT(fleet.requests_ok(), ok_before + 100);
}

TEST(HttpClient, AnalyzerQuantifiesDip) {
  WebRig rig;
  workload::HttpClientFleet fleet(*rig.g, *rig.apache, rig.files, {});
  fleet.start();
  rig.fx.sim.run_for(20 * sim::kSecond);
  const sim::SimTime event = rig.fx.sim.now();
  bool stopped = false;
  rig.apache->stop(*rig.g, [&] { stopped = true; });
  run_until_flag(rig.fx.sim, stopped);
  rig.fx.sim.run_for(10 * sim::kSecond);
  bool started = false;
  rig.apache->start(*rig.g, [&] { started = true; });
  run_until_flag(rig.fx.sim, started);
  const sim::SimTime restored = rig.fx.sim.now();
  rig.fx.sim.run_for(20 * sim::kSecond);
  fleet.stop();

  const auto rep = workload::ThroughputAnalyzer::analyze(
      fleet.completions(), event, restored, rig.fx.sim.now());
  EXPECT_NEAR(rep.baseline_rate, 220.0, 20.0);
  // Full recovery (caches intact): the first active bin is only ramp-up
  // noise (retries re-arrive over ~1 s), not a persistent dip.
  EXPECT_LT(rep.degradation, 0.4);
  EXPECT_LE(sim::to_seconds(rep.degraded_window), 3.0);
}

TEST(HttpClient, ValidatesConfig) {
  WebRig rig;
  EXPECT_THROW(workload::HttpClientFleet(*rig.g, *rig.apache, {}, {}),
               InvariantViolation);
}

}  // namespace
}  // namespace rh::test
