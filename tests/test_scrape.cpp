// Telemetry plane (DESIGN.md §15): Prometheus rendering/parsing, the
// time-series store, SLO evaluation, and scraping under failure.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "obs/export.hpp"
#include "obs/metrics_exporter.hpp"
#include "obs/observer.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

// ------------------------------------------------------------ fmt_double

TEST(FmtDouble, ShortestFormRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5, 0.0, 1e300, 6.02214076e23,
                         0.015625, -0.0, 123456789.123456789}) {
    const std::string s = obs::fmt_double(v);
    double back = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), back);
    ASSERT_EQ(ec, std::errc{}) << s;
    ASSERT_EQ(end, s.data() + s.size()) << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << s;
  }
  // Locale-independent: never a comma, always the shortest form.
  EXPECT_EQ(obs::fmt_double(0.1), "0.1");
  EXPECT_EQ(obs::fmt_double(-2.5), "-2.5");
  EXPECT_EQ(obs::fmt_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(obs::fmt_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(obs::fmt_double(std::nan("")), "nan");
}

// ---------------------------------------------------- Prometheus renderer

TEST(Prometheus, NameSanitisation) {
  EXPECT_EQ(obs::prometheus_name("host.load"), "host_load");
  EXPECT_EQ(obs::prometheus_name("obs.ring_dropped"), "obs_ring_dropped");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prometheus_name("a:b"), "a:b");
  EXPECT_EQ(obs::prometheus_name(""), "_");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(obs::prometheus_label_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Prometheus, GoldenRender) {
  obs::MetricsRegistry m;
  // Registered out of sorted order on purpose: the renderer must sort.
  m.counter("host.requests") = 7;
  m.counter("host.aborts") = 2;
  m.gauge("host.load") = 12.5;
  m.histogram("req_us").add(1000);
  m.histogram("req_us").add(3'000'000);
  m.summary("think.s").add(2.5);
  m.summary("think.s").add(7.5);
  std::ostringstream os;
  obs::write_prometheus_text(os, m, "h\"0");
  // Bucket uppers: 1000 lands in [, 1024), 3'000'000 in [, 3145728).
  const std::string expected =
      "# TYPE host_aborts counter\n"
      "host_aborts{instance=\"h\\\"0\"} 2\n"
      "# TYPE host_requests counter\n"
      "host_requests{instance=\"h\\\"0\"} 7\n"
      "# TYPE host_load gauge\n"
      "host_load{instance=\"h\\\"0\"} 12.5\n"
      "# TYPE req_us histogram\n"
      "req_us_bucket{instance=\"h\\\"0\",le=\"1024\"} 1\n"
      "req_us_bucket{instance=\"h\\\"0\",le=\"3145728\"} 2\n"
      "req_us_bucket{instance=\"h\\\"0\",le=\"+Inf\"} 2\n"
      "req_us_sum{instance=\"h\\\"0\"} 3001000\n"
      "req_us_count{instance=\"h\\\"0\"} 2\n"
      "# TYPE think_s summary\n"
      "think_s{instance=\"h\\\"0\",quantile=\"0\"} 2.5\n"
      "think_s{instance=\"h\\\"0\",quantile=\"1\"} 7.5\n"
      "think_s_sum{instance=\"h\\\"0\"} 10\n"
      "think_s_count{instance=\"h\\\"0\"} 2\n";
  EXPECT_EQ(os.str(), expected);
  // Same registry, same bytes: the render is a pure function.
  std::ostringstream again;
  obs::write_prometheus_text(again, m, "h\"0");
  EXPECT_EQ(again.str(), os.str());
}

TEST(Prometheus, ParseBackRoundTripsBitExactly) {
  obs::MetricsRegistry m;
  m.counter("c.total") = 123456789012345ull;
  m.gauge("g.pi") = 3.141592653589793;
  m.gauge("g.inf") = std::numeric_limits<double>::infinity();
  m.gauge("g.tiny") = 5e-324;  // smallest subnormal
  m.histogram("h_us").add(42);
  m.summary("s.v").add(-1.25);
  std::ostringstream os;
  obs::write_prometheus_text(os, m, "host-3");
  std::map<std::string, double> parsed;
  obs::parse_prometheus_text(os.str(),
                             [&](std::string_view key, double value) {
                               parsed[std::string(key)] = value;
                             });
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_TRUE(parsed.count("c_total"));
  EXPECT_EQ(parsed["c_total"], 123456789012345.0);
  ASSERT_TRUE(parsed.count("g_pi"));
  EXPECT_EQ(bits(parsed["g_pi"]), bits(3.141592653589793));
  ASSERT_TRUE(parsed.count("g_inf"));
  EXPECT_TRUE(std::isinf(parsed["g_inf"]));
  ASSERT_TRUE(parsed.count("g_tiny"));
  EXPECT_EQ(bits(parsed["g_tiny"]), bits(5e-324));
  // The instance label is stripped; other labels survive as key text.
  ASSERT_TRUE(parsed.count("h_us_bucket{le=\"+Inf\"}"));
  EXPECT_EQ(parsed["h_us_bucket{le=\"+Inf\"}"], 1.0);
  ASSERT_TRUE(parsed.count("s_v{quantile=\"0\"}"));
  EXPECT_EQ(bits(parsed["s_v{quantile=\"0\"}"]), bits(-1.25));
  // Malformed lines are skipped, not fatal.
  obs::parse_prometheus_text("garbage\nname{unterminated 1\n# c\n\n",
                             [&](std::string_view, double) { FAIL(); });
}

// ------------------------------------------------------- MetricsExporter

TEST(MetricsExporter, ServesWhileServingDropsWhileDown) {
  obs::Observer obs;
  ++obs.metrics().counter("host.requests");
  bool serving = true;
  obs::MetricsExporter ex(obs, "host-0", [&serving] { return serving; });
  std::string body;
  EXPECT_TRUE(ex.handle_scrape([&body](std::string b) { body = std::move(b); }));
  EXPECT_NE(body.find("host_requests{instance=\"host-0\"} 1"),
            std::string::npos);
  // The ring-loss counters are always collected, even with emission off.
  EXPECT_NE(body.find("obs_ring_dropped"), std::string::npos);
  EXPECT_NE(body.find("obs_exporter_scrapes{instance=\"host-0\"} 1"),
            std::string::npos);
  EXPECT_EQ(ex.scrapes_served(), 1u);

  serving = false;
  body.clear();
  EXPECT_FALSE(ex.handle_scrape([&body](std::string b) { body = std::move(b); }));
  EXPECT_TRUE(body.empty());  // no reply at all: the timeout is the signal
  EXPECT_EQ(ex.scrapes_dropped(), 1u);
}

// -------------------------------------------------------- TimeSeriesStore

TEST(TimeSeriesStore, WindowWrapsAndLatestWins) {
  obs::TimeSeriesStore tsdb(1);
  for (int i = 0; i < 70; ++i) {
    tsdb.ingest(0, "host_load", i * 100, static_cast<double>(i));
  }
  const auto latest = tsdb.latest(0, "host_load");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->time, 6900);
  EXPECT_EQ(latest->value, 69.0);
  EXPECT_FALSE(tsdb.latest(0, "unknown").has_value());
  tsdb.for_each_series(
      0, [](std::string_view name,
            const std::vector<obs::TimeSeriesStore::Sample>& window,
            const sim::LatencyHistogram& sketch) {
        EXPECT_EQ(name, "host_load");
        ASSERT_EQ(window.size(), 64u);  // ring keeps the newest 64
        EXPECT_EQ(window.front().value, 6.0);
        EXPECT_EQ(window.back().value, 69.0);
        EXPECT_EQ(sketch.count(), 70u);  // sketch absorbs every sample
      });
  EXPECT_EQ(tsdb.samples_ingested(), 70u);
}

TEST(TimeSeriesStore, StalenessIsPerInstanceAndSticky) {
  obs::TimeSeriesStore tsdb(2);
  tsdb.ingest(0, "x", 10, 1.0);
  tsdb.mark_stale(0, 500);
  tsdb.mark_stale(0, 900);  // first mark wins
  EXPECT_TRUE(tsdb.stale(0));
  EXPECT_EQ(tsdb.stale_since(0), 500);
  EXPECT_FALSE(tsdb.stale(1));
  // Stale instances still answer latest(): last-known is the signal.
  EXPECT_TRUE(tsdb.latest(0, "x").has_value());
  tsdb.mark_fresh(0);
  EXPECT_FALSE(tsdb.stale(0));
}

TEST(TimeSeriesStore, DigestTracksContent) {
  obs::TimeSeriesStore a(2), b(2);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  a.ingest(0, "x", 10, 1.5);
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.ingest(0, "x", 10, 1.5);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  a.mark_stale(1, 99);
  EXPECT_NE(a.state_digest(), b.state_digest());
}

// ----------------------------------------------------------- SloEvaluator

TEST(SloEvaluator, BurnRateGateEngagesAndCools) {
  obs::SloEvaluator slo(4, {.pause_burn_rate = 2.0});
  EXPECT_FALSE(slo.admission_paused());
  // One bad round: 1 miss in 4 -> 25 % error rate -> burn 25 >> 2.
  slo.record(0, false);
  for (std::size_t h = 1; h < 4; ++h) slo.record(h, true);
  slo.end_round();
  EXPECT_TRUE(slo.admission_paused());
  EXPECT_NEAR(slo.burn_rate(), 25.0, 1e-9);
  // Seven clean rounds dilute the window below the threshold...
  for (int r = 0; r < 7; ++r) {
    for (std::size_t h = 0; h < 4; ++h) slo.record(h, true);
    slo.end_round();
  }
  EXPECT_TRUE(slo.admission_paused());  // 1/32 -> burn 3.125, still hot
  // ...and the eighth pushes the bad round out entirely.
  for (std::size_t h = 0; h < 4; ++h) slo.record(h, true);
  slo.end_round();
  EXPECT_FALSE(slo.admission_paused());
  EXPECT_EQ(slo.burn_rate(), 0.0);
}

TEST(SloEvaluator, DarkTransitionFiresOnceUntilReset) {
  obs::SloEvaluator slo(2, {});
  EXPECT_FALSE(slo.record(0, false));
  EXPECT_FALSE(slo.record(0, false));
  EXPECT_TRUE(slo.record(0, false));  // exactly the 3rd consecutive miss
  EXPECT_FALSE(slo.record(0, false));  // already dark: no re-transition
  EXPECT_TRUE(slo.dark(0));
  EXPECT_FALSE(slo.dark(1));
  EXPECT_EQ(slo.dark_hosts(), 1u);
  EXPECT_FALSE(slo.record(0, true));  // an answer clears the flag
  EXPECT_FALSE(slo.dark(0));
  EXPECT_FALSE(slo.record(0, false));
  EXPECT_FALSE(slo.record(0, false));
  EXPECT_TRUE(slo.record(0, false));  // and the count starts over
}

// ------------------------------------------------- scraping the cluster

cluster::Cluster::Config scrape_cluster(int hosts = 3, bool observe = false) {
  cluster::Cluster::Config c;
  c.hosts = hosts;
  c.vms_per_host = 2;
  c.files_per_vm = 4;
  c.observe = observe;
  return c;
}

cluster::Cluster::ScrapeConfig fast_scrape() {
  cluster::Cluster::ScrapeConfig sc;
  sc.interval = sim::kSecond;
  sc.timeout = 200 * sim::kMillisecond;
  return sc;
}

TEST(Scrape, RoundsIngestEveryHost) {
  ClusterRig rig(scrape_cluster(3));
  rig.cl.start_scraping(fast_scrape());
  rig.run_for(3 * sim::kSecond + 500 * sim::kMillisecond);
  cluster::MetricsScraper& s = *rig.cl.scraper();
  EXPECT_EQ(s.stats().rounds_completed, 3u);
  EXPECT_EQ(s.stats().scrapes_ok, 9u);
  EXPECT_EQ(s.stats().scrapes_failed, 0u);
  EXPECT_GT(s.stats().bytes_transferred, 0u);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_FALSE(s.tsdb().stale(h));
    const auto load = s.tsdb().latest(h, "host_load");
    ASSERT_TRUE(load.has_value()) << "host " << h;
    EXPECT_EQ(load->value, 0.0);  // idle cluster
    EXPECT_TRUE(s.tsdb().latest(h, "host_vmm_generation").has_value());
    EXPECT_TRUE(s.tsdb().latest(h, "obs_ring_events").has_value());
  }
}

TEST(Scrape, CrashedHostTimesOutWithoutStallingTheRound) {
  ClusterRig rig(scrape_cluster(3));
  rig.cl.start_scraping(fast_scrape());
  rig.run_for(2 * sim::kSecond + 500 * sim::kMillisecond);  // 2 clean rounds
  // Dom0 leaves kRunning immediately, so the exporter stops serving now
  // (the shutdown itself takes ~10 simulated seconds to finish).
  rig.cl.host(0).shutdown_dom0([] {});
  ASSERT_FALSE(rig.cl.host(0).up());
  rig.run_for(6 * sim::kSecond);
  cluster::MetricsScraper& s = *rig.cl.scraper();
  // Rounds keep completing: the dead host's timeout resolves its slot.
  EXPECT_GE(s.stats().rounds_completed, 7u);
  EXPECT_GE(s.stats().scrapes_failed, 4u);
  // Only host 0 fails; the others stay fresh.
  EXPECT_TRUE(s.tsdb().stale(0));
  EXPECT_FALSE(s.tsdb().stale(1));
  EXPECT_FALSE(s.tsdb().stale(2));
  // Three consecutive misses flipped it dark -- from telemetry alone.
  EXPECT_TRUE(s.slo().dark(0));
  EXPECT_EQ(s.slo().dark_hosts(), 1u);
  // The requests still arrive at the host; the exporter refuses them and
  // never replies, which is exactly what the timeouts observed.
  EXPECT_GT(s.exporter(0).scrapes_dropped(), 0u);
  // Last-known samples survive staleness (the control plane acts on them).
  EXPECT_TRUE(s.tsdb().latest(0, "host_load").has_value());
}

TEST(Scrape, StaleSeriesRefreshAfterPlannedRecovery) {
  ClusterRig rig(scrape_cluster(2));
  rig.cl.start_scraping(fast_scrape());
  rig.run_for(2 * sim::kSecond + 500 * sim::kMillisecond);
  // A warm rolling pass takes each host down well past the scrape
  // timeout; its scrapes fail while it reboots and recover afterwards.
  bool done = false;
  cluster::Cluster::WaveConfig wc;
  wc.wave_size = 1;
  rig.start_waves(wc, done);
  rig.run_for(5 * sim::kMinute);
  ASSERT_TRUE(done);
  rig.run_for(2 * sim::kSecond);  // one more clean round post-pass
  cluster::MetricsScraper& s = *rig.cl.scraper();
  EXPECT_GT(s.stats().scrapes_failed, 0u);
  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_FALSE(s.tsdb().stale(h)) << "host " << h;
    EXPECT_FALSE(s.slo().dark(h)) << "host " << h;
    // The reboot bumped the scraped generation counter.
    const auto gen = s.tsdb().latest(h, "host_vmm_generation");
    ASSERT_TRUE(gen.has_value());
    EXPECT_GE(gen->value, 1.0);
  }
}

TEST(Scrape, BurnRateGatePausesWaveAdmission) {
  ClusterRig rig(scrape_cluster(3));
  cluster::Cluster::ScrapeConfig sc = fast_scrape();
  sc.slo.pause_burn_rate = 2.0;  // one dead host in 3 = burn 33: trips
  rig.cl.start_scraping(sc);
  rig.cl.host(0).shutdown_dom0([] {});
  rig.run_for(3 * sim::kSecond);
  cluster::MetricsScraper& s = *rig.cl.scraper();
  ASSERT_TRUE(s.slo().admission_paused());
  bool done = false;
  cluster::Cluster::WaveConfig wc;
  wc.wave_size = 1;
  rig.start_waves(wc, done);
  rig.run_for(5 * sim::kMinute);
  // The gate held: no wave turn ever launched while the budget burned.
  EXPECT_FALSE(done);
  EXPECT_TRUE(rig.cl.rolling_in_progress());
}

TEST(Scrape, ScrapedWaveSignalsRequireScraping) {
  ClusterRig rig(scrape_cluster(2));
  cluster::Cluster::WaveConfig wc;
  wc.signals = cluster::Cluster::WaveSignalSource::kScraped;
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves(
                   wc, [](const cluster::Cluster::WaveReport&) {}),
               InvariantViolation);
}

TEST(Scrape, ScrapedSignalsOrderIdleWavesLikeWireTap) {
  // Fault-free and idle: both signal sources see identical (zero) load,
  // so the wave order must agree host for host.
  auto run = [](cluster::Cluster::WaveSignalSource src) {
    ClusterRig rig(scrape_cluster(3));
    rig.cl.start_scraping(fast_scrape());
    rig.run_for(2 * sim::kSecond + 500 * sim::kMillisecond);
    cluster::Cluster::WaveConfig wc;
    wc.wave_size = 1;
    wc.signals = src;
    bool done = false;
    cluster::Cluster::WaveReport out;
    rig.start_waves(wc, done, &out);
    rig.run_for(10 * sim::kMinute);
    EXPECT_TRUE(done);
    std::vector<std::size_t> order;
    for (const auto& w : out.waves) {
      order.insert(order.end(), w.hosts.begin(), w.hosts.end());
    }
    return order;
  };
  const auto wire = run(cluster::Cluster::WaveSignalSource::kWireTap);
  const auto scraped = run(cluster::Cluster::WaveSignalSource::kScraped);
  ASSERT_EQ(wire.size(), 3u);
  EXPECT_EQ(wire, scraped);
}

TEST(Scrape, FlightRecordDumpsSeriesAndEventTail) {
  ClusterRig rig(scrape_cluster(2, /*observe=*/true));
  rig.cl.start_scraping(fast_scrape());
  rig.run_for(3 * sim::kSecond);
  // The host's last words before the outage: the dump must carry the
  // ring tail (a quiet host emits nothing on a plain dom0 shutdown).
  for (int i = 0; i < 3; ++i) {
    rig.cl.host(0).obs().emit(rig.cl.host(0).sim().now(),
                              obs::Category::kHost, obs::EventKind::kMark,
                              "pre-outage", 0, static_cast<std::uint64_t>(i));
  }
  rig.cl.host(0).shutdown_dom0([] {});
  rig.run_for(5 * sim::kSecond);  // enough misses to go dark
  cluster::MetricsScraper& s = *rig.cl.scraper();
  ASSERT_TRUE(s.slo().dark(0));
  std::ostringstream os;
  s.write_flight_record(os, 0);
  const std::string rec = os.str();
  EXPECT_NE(rec.find("\"instance\": \"host-0\""), std::string::npos);
  EXPECT_NE(rec.find("\"dark\": true"), std::string::npos);
  EXPECT_NE(rec.find("\"stale\": true"), std::string::npos);
  EXPECT_NE(rec.find("\"name\": \"host_load\""), std::string::npos);
  EXPECT_NE(rec.find("\"sketch\""), std::string::npos);
  // Observability was on, so the host's typed events ride along.
  EXPECT_NE(rec.find("\"events\": ["), std::string::npos);
  EXPECT_NE(rec.find("\"category\""), std::string::npos);
  EXPECT_EQ(rec.front(), '{');
  EXPECT_EQ(rec.back(), '\n');
}

TEST(Scrape, ConfigValidation) {
  ClusterRig rig(scrape_cluster(2));
  cluster::Cluster::ScrapeConfig sc;
  sc.interval = sim::kSecond;
  sc.timeout = 2 * sim::kSecond;  // timeout >= interval: rounds overlap
  EXPECT_THROW(rig.cl.start_scraping(sc), InvariantViolation);
  sc.timeout = 100;  // <= round trip of the 200 us link
  EXPECT_THROW(rig.cl.start_scraping(sc), InvariantViolation);
  rig.cl.start_scraping(fast_scrape());
  EXPECT_THROW(rig.cl.start_scraping(fast_scrape()), InvariantViolation);
}

TEST(Scrape, StateDigestIsReproducible) {
  auto digest = [] {
    ClusterRig rig(scrape_cluster(3));
    rig.cl.start_scraping(fast_scrape());
    rig.run_for(2 * sim::kSecond + 500 * sim::kMillisecond);
    rig.cl.host(0).shutdown_dom0([] {});
    rig.run_for(5 * sim::kSecond);
    return rig.cl.scraper()->state_digest();
  };
  EXPECT_EQ(digest(), digest());
}

}  // namespace
}  // namespace rh::test
