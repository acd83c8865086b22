#include "cluster/session_fleet.hpp"

#include <algorithm>
#include <iterator>

#include "simcore/check.hpp"

namespace rh::cluster {

namespace {

// Back-off before a ClusterClientFleet connection reissues a failed
// request.
constexpr sim::Duration kClientRetryInterval = 500 * sim::kMillisecond;

}  // namespace

ClusterClientFleet::ClusterClientFleet(sim::Simulation& sim,
                                       ShardedBalancer& balancer,
                                       Config config)
    : sim_(sim), balancer_(balancer), config_(config) {
  ensure(config.connections > 0, "ClusterClientFleet: need connections");
}

void ClusterClientFleet::start() {
  ensure(!started_, "ClusterClientFleet::start: already started");
  started_ = true;
  for (int c = 0; c < config_.connections; ++c) issue(c);
}

void ClusterClientFleet::stop() { stopped_ = true; }

void ClusterClientFleet::issue(int connection) {
  if (stopped_) return;
  balancer_.dispatch(static_cast<std::uint64_t>(connection),
                     [this, connection](bool served) {
    if (stopped_) return;
    if (served) {
      completions_.record(sim_.now());
      issue(connection);
    } else {
      sim_.after(kClientRetryInterval,
                 [this, connection] { issue(connection); });
    }
  });
}

SessionFleet::SessionFleet(ShardedBalancer& balancer, Config config)
    : balancer_(balancer), config_(config) {
  ensure(config_.sessions >= 1, "SessionFleet: need at least one session");
  ensure(config_.think_base >= 0 && config_.think_spread >= 0,
         "SessionFleet: negative think time");
  ensure(config_.retry_interval > 0, "SessionFleet: need a retry interval");
  ensure(config_.tick > 0, "SessionFleet: need a tick period");
  const std::uint64_t shards = balancer_.shard_count();
  slices_.resize(shards);
  // A session is filed at most max(think, retry) after the next tick, so
  // that many ticks plus the next one never wrap a slice's bucket ring.
  const sim::Duration horizon = std::max(
      config_.think_base + config_.think_spread, config_.retry_interval);
  const auto ring_size = static_cast<std::size_t>(
      (horizon + config_.tick - 1) / config_.tick + 1);
  // Block assignment: slice s holds sessions [s*M/S, (s+1)*M/S). Every
  // session is pinned to its slice's shard for dispatch.
  for (std::uint64_t s = 0; s < shards; ++s) {
    Slice& sl = slices_[s];
    sl.first = s * config_.sessions / shards;
    const std::uint64_t end = (s + 1) * config_.sessions / shards;
    const auto n = static_cast<std::size_t>(end - sl.first);
    sl.next_due.assign(n, 0);
    sl.issued_at.assign(n, kIdle);
    sl.down_since.assign(n, kUp);
    sl.downtime.assign(n, 0);
    sl.downtime_unplanned.assign(n, 0);
    sl.down_unplanned.assign(n, 0);
    sl.completions.assign(n, 0);
    sl.failures.assign(n, 0);
    sl.ring.resize(ring_size);
  }
}

sim::Duration SessionFleet::think_of(std::uint64_t global) const {
  if (config_.think_spread == 0) return config_.think_base;
  const auto offset = static_cast<sim::Duration>(
      ShardedBalancer::hash_key(global) %
      static_cast<std::uint64_t>(config_.think_spread));
  return config_.think_base + offset;
}

void SessionFleet::start(sim::ParallelSimulation& engine) {
  ensure(!started_, "SessionFleet::start: already started");
  started_ = true;
  for (std::uint32_t s = 0; s < slices_.size(); ++s) {
    Slice& sl = slices_[s];
    const std::int32_t p = balancer_.shard_partition(s);
    sl.sim = &engine.partition(p);
    const sim::SimTime now = sl.sim->now();
    sl.tick0 = now;
    for (std::size_t i = 0; i < sl.next_due.size(); ++i) {
      // Hash-staggered first issue so a million sessions do not arrive in
      // one tick-aligned burst.
      sl.next_due[i] =
          now + static_cast<sim::Duration>(
                    ShardedBalancer::hash_key(~(sl.first + i)) %
                    static_cast<std::uint64_t>(config_.think_base +
                                               config_.think_spread + 1));
      file(sl, static_cast<std::uint32_t>(i));
    }
    if (!sl.next_due.empty()) {
      engine.run_on(p, [this, s] { tick(s); });
    }
    window_start_ = now;
  }
}

void SessionFleet::stop() { stopped_ = true; }

// The batched issue: the tick takes its bucket, so it touches only the
// sessions due by now. Sorting the bucket issues them in ascending index,
// the order a scan of the whole slice would find them.
void SessionFleet::tick(std::uint32_t shard) {
  if (stopped_) return;
  Slice& sl = slices_[shard];
  const sim::SimTime now = sl.sim->now();
  // From here on this tick has run: a session filed while it issues, or
  // later at this same instant, waits for the next tick.
  std::swap(sl.issuing, sl.ring[sl.next_tick % sl.ring.size()]);
  ++sl.next_tick;
  std::sort(sl.issuing.begin(), sl.issuing.end());
  for (const std::uint32_t i : sl.issuing) {
    ensure(sl.issued_at[i] == kIdle && sl.next_due[i] <= now,
           "SessionFleet::tick: a filed session is in flight or not due");
    issue(shard, i);
  }
  sl.issuing.clear();
  sl.sim->after(config_.tick, [this, shard] { tick(shard); });
}

void SessionFleet::file(Slice& sl, std::uint32_t i) const {
  const sim::SimTime next_at =
      sl.tick0 + static_cast<sim::Duration>(sl.next_tick) * config_.tick;
  std::uint64_t k = sl.next_tick;
  if (sl.next_due[i] > next_at) {
    k += static_cast<std::uint64_t>(
        (sl.next_due[i] - next_at + config_.tick - 1) / config_.tick);
  }
  ensure(k - sl.next_tick < sl.ring.size(),
         "SessionFleet: a session is due beyond the tick ring");
  sl.ring[k % sl.ring.size()].push_back(i);
}

void SessionFleet::issue(std::uint32_t shard, std::uint32_t i) {
  Slice& sl = slices_[shard];
  sl.issued_at[i] = sl.sim->now();
  ++sl.issued;
  balancer_.dispatch_on(shard, [this, shard, i](bool ok) {
    on_reply(shard, i, ok);
  });
}

void SessionFleet::on_reply(std::uint32_t shard, std::uint32_t i, bool ok) {
  if (stopped_) return;
  Slice& sl = slices_[shard];
  const sim::SimTime now = sl.sim->now();
  const sim::SimTime issued = sl.issued_at[i];
  sl.issued_at[i] = kIdle;
  if (ok) {
    ++sl.completions[i];
    sl.latency.add(now - issued);
    if (sl.down_since[i] != kUp) {
      // Recovery: the outage ran from the first failed issue to this
      // completion.
      const sim::Duration d = now - sl.down_since[i];
      sl.downtime[i] += d;
      if (sl.down_unplanned[i] != 0) {
        sl.downtime_unplanned[i] += d;
        sl.down_unplanned[i] = 0;
      }
      sl.down_since[i] = kUp;
    }
    sl.next_due[i] = now + think_of(sl.first + i);
  } else {
    ++sl.failures[i];
    if (sl.down_since[i] == kUp) {
      sl.down_since[i] = issued;
      // Cause attribution, sampled once at outage start from the shard's
      // own membership view (partition-local, so worker-count invariant).
      if (balancer_.shard_unplanned_down(shard) > 0) sl.down_unplanned[i] = 1;
    }
    sl.next_due[i] = now + config_.retry_interval;
  }
  file(sl, i);
}

sim::SimTime SessionFleet::next_due(std::uint64_t session) const {
  ensure(session < config_.sessions, "SessionFleet::next_due: no such session");
  // Block assignment: the owning slice is the last one starting at or
  // before `session`.
  const auto sl = std::prev(std::upper_bound(
      slices_.begin(), slices_.end(), session,
      [](std::uint64_t g, const Slice& s) { return g < s.first; }));
  return sl->next_due[static_cast<std::size_t>(session - sl->first)];
}

void SessionFleet::begin_window(sim::SimTime now) {
  for (auto& sl : slices_) {
    std::fill(sl.downtime.begin(), sl.downtime.end(), 0);
    std::fill(sl.downtime_unplanned.begin(), sl.downtime_unplanned.end(), 0);
    std::fill(sl.completions.begin(), sl.completions.end(), 0);
    std::fill(sl.failures.begin(), sl.failures.end(), 0);
    sl.latency.clear();
    for (auto& d : sl.down_since) {
      if (d != kUp) d = now;
    }
    sl.issued = 0;
    sl.in_flight_at_begin = static_cast<std::uint64_t>(
        std::count_if(sl.issued_at.begin(), sl.issued_at.end(),
                      [](sim::SimTime t) { return t != kIdle; }));
  }
  window_start_ = now;
}

SessionFleet::Stats SessionFleet::stats(sim::SimTime window_end) const {
  ensure(window_end > window_start_, "SessionFleet::stats: empty window");
  const auto window = static_cast<double>(window_end - window_start_);
  Stats out;
  double total_down = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t in_flight_at_begin = 0;
  for (const auto& sl : slices_) {
    out.request_latency.merge(sl.latency);
    issued += sl.issued;
    in_flight_at_begin += sl.in_flight_at_begin;
    for (std::size_t i = 0; i < sl.downtime.size(); ++i) {
      out.completions += sl.completions[i];
      out.failures += sl.failures[i];
      if (sl.issued_at[i] != kIdle) ++out.in_flight;
      sim::Duration d = sl.downtime[i];
      sim::Duration unplanned = sl.downtime_unplanned[i];
      if (sl.down_since[i] != kUp) {
        const sim::Duration open = window_end - sl.down_since[i];
        d += open;
        if (sl.down_unplanned[i] != 0) unplanned += open;
        ++out.sessions_down_at_end;
      }
      d = std::min<sim::Duration>(d, window_end - window_start_);
      unplanned = std::min(unplanned, d);
      out.unplanned_downtime += unplanned;
      out.planned_downtime += d - unplanned;
      out.session_downtime.add(d);
      total_down += static_cast<double>(d);
    }
  }
  // Conservation: every request issued in the window, or already out at
  // its start, has completed, failed or is still out.
  ensure(issued + in_flight_at_begin ==
             out.completions + out.failures + out.in_flight,
         "SessionFleet::stats: issued + in flight at begin must equal "
         "completions + failures + in flight at end");
  const auto avail = [&](double p) {
    const auto d =
        static_cast<double>(out.session_downtime.percentile(p));
    return std::max(0.0, 1.0 - std::min(d, window) / window);
  };
  out.availability_p99 = avail(99.0);
  out.availability_p999 = avail(99.9);
  const auto sessions = static_cast<double>(config_.sessions);
  out.pooled_availability =
      std::max(0.0, 1.0 - total_down / (sessions * window));
  return out;
}

std::uint64_t SessionFleet::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& sl : slices_) {
    mix(sl.first);
    for (std::size_t i = 0; i < sl.downtime.size(); ++i) {
      mix(static_cast<std::uint64_t>(sl.completions[i]));
      mix(static_cast<std::uint64_t>(sl.failures[i]));
      mix(static_cast<std::uint64_t>(sl.downtime[i]));
      mix(static_cast<std::uint64_t>(sl.next_due[i]));
      mix(static_cast<std::uint64_t>(sl.downtime_unplanned[i]));
    }
  }
  return h;
}

}  // namespace rh::cluster
