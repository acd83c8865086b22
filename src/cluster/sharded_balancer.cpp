#include "cluster/sharded_balancer.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"

namespace rh::cluster {

ShardedBalancer::ShardedBalancer(sim::ParallelSimulation& engine,
                                 std::size_t shards,
                                 std::int32_t first_shard_partition,
                                 sim::Duration rpc_latency)
    : engine_(engine),
      first_shard_partition_(first_shard_partition),
      rpc_latency_(rpc_latency) {
  ensure(shards >= 1, "ShardedBalancer: need at least one shard");
  ensure(rpc_latency >= engine.lookahead(),
         "ShardedBalancer: RPC latency below the lookahead");
  ensure(first_shard_partition >= 0 &&
             first_shard_partition + static_cast<std::int32_t>(shards) <=
                 engine.partition_count(),
         "ShardedBalancer: shard partitions out of range");
  shards_.resize(shards);
}

std::uint64_t ShardedBalancer::hash_key(std::uint64_t key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void ShardedBalancer::add_backend(Backend backend) {
  ensure(backend.os != nullptr && backend.apache != nullptr,
         "ShardedBalancer: backend needs an OS and a service");
  ensure(!backend.files.empty(), "ShardedBalancer: backend needs content");
  ensure(backend.partition >= 0 &&
             backend.partition < engine_.partition_count(),
         "ShardedBalancer: backend needs its host's partition");
  ensure(quiescent(), "ShardedBalancer::add_backend: topology is fixed once "
                      "the engine runs");
  const auto b = static_cast<std::uint32_t>(backends_.size());
  const std::size_t owner = backend.host_index % shards_.size();
  if (backend.host_index >= host_backends_.size()) {
    host_backends_.resize(backend.host_index + 1);
  }
  host_backends_[backend.host_index].push_back(b);
  backends_.push_back(std::move(backend));
  for (auto& sh : shards_) {
    sh.evicted.push_back(0);
    sh.crashed.push_back(0);
    sh.next_file.push_back(0);
  }
  shards_[owner].owned.push_back(b);
}

// Mid-run, each shard's view is partition-local state, so the change is
// broadcast through the mailboxes and applied shard-side.
template <class Update>
void ShardedBalancer::broadcast(const Update& update) {
  if (quiescent()) {
    for (auto& sh : shards_) update(sh);
    return;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    engine_.post(shard_partition(s), rpc_latency_,
                 [this, s, update] { update(shards_[s]); });
  }
}

bool ShardedBalancer::mark_host(std::vector<std::uint8_t>& view,
                                std::size_t host_index, bool on) const {
  if (host_index >= host_backends_.size()) return false;
  const std::uint8_t want = on ? 1 : 0;
  bool changed = false;
  for (const std::uint32_t b : host_backends_[host_index]) {
    if (view[b] == want) continue;
    view[b] = want;
    changed = true;
  }
  return changed;
}

void ShardedBalancer::set_host_evicted(std::size_t host_index, bool evicted) {
  broadcast([this, host_index, evicted](Shard& sh) {
    mark_host(sh.evicted, host_index, evicted);
  });
}

void ShardedBalancer::set_host_crashed(std::size_t host_index, bool crashed) {
  // Counts only real flips, so crashed_hosts stays balanced under
  // repeated broadcasts.
  broadcast([this, host_index, crashed](Shard& sh) {
    if (!mark_host(sh.crashed, host_index, crashed)) return;
    sh.crashed_hosts += crashed ? 1u : -1u;
    ++sh.crash_events;
  });
}

void ShardedBalancer::dispatch(std::uint64_t key,
                               std::function<void(bool)> done) {
  start_on(home_shard(key), std::move(done));
}

void ShardedBalancer::dispatch_on(std::size_t shard,
                                  std::function<void(bool)> done) {
  ensure(shard < shards_.size(), "ShardedBalancer::dispatch_on: bad shard");
  start_on(shard, std::move(done));
}

void ShardedBalancer::start_on(std::size_t shard,
                               std::function<void(bool)> done) {
  ensure(static_cast<bool>(done), "ShardedBalancer: callback required");
  ensure(!backends_.empty(), "ShardedBalancer: no backends");
  auto state = std::make_shared<Request>();
  state->done = std::move(done);
  state->home_shard = static_cast<std::uint32_t>(shard);
  state->current_shard = state->home_shard;
  state->shards_left = static_cast<std::uint32_t>(shards_.size());
  state->probes_left = static_cast<std::uint32_t>(shards_[shard].owned.size());
  const std::int32_t caller = sim::current_partition();
  ensure(caller >= 0, "ShardedBalancer::dispatch: call from inside partition "
                      "execution (seed with ParallelSimulation::run_on)");
  state->reply_partition = caller;
  if (caller == shard_partition(shard)) {
    try_shard(std::move(state));
    return;
  }
  engine_.post(shard_partition(shard), rpc_latency_,
               [this, state = std::move(state)]() mutable {
    try_shard(std::move(state));
  });
}

// Runs on the current shard's partition. One candidate per iteration; a
// probe RPC suspends the loop until its reply lands back on this shard.
void ShardedBalancer::try_shard(std::shared_ptr<Request> state) {
  Shard& sh = shards_[state->current_shard];
  while (state->probes_left > 0) {
    --state->probes_left;
    const std::uint32_t b = sh.owned[sh.rr % sh.owned.size()];
    ++sh.rr;
    if (sh.evicted[b] != 0 || sh.crashed[b] != 0) continue;
    // Probe RPC: reachability lives host-side. The reply re-checks the
    // shard's membership view before anything is served.
    const Backend& be = backends_[b];
    guest::GuestOs* os = be.os;
    guest::ApacheService* apache = be.apache;
    engine_.post(be.partition, rpc_latency_,
                 [this, os, apache, b, state = std::move(state)]() mutable {
      const bool up = os->service_reachable(*apache);
      const auto shard = static_cast<std::size_t>(state->current_shard);
      engine_.post(shard_partition(shard), rpc_latency_,
                   [this, up, b, state = std::move(state)]() mutable {
        probe_reply(up, b, std::move(state));
      });
    });
    return;
  }
  next_ring_hop(std::move(state));
}

void ShardedBalancer::probe_reply(bool up, std::uint32_t b,
                                  std::shared_ptr<Request> state) {
  Shard& sh = shards_[state->current_shard];
  // Membership re-check: an eviction that landed while the probe was in
  // flight must win -- the stale "up" reply alone never puts a backend
  // back in rotation.
  if (!up || sh.evicted[b] != 0 || sh.crashed[b] != 0) {
    try_shard(std::move(state));
    return;
  }
  serve(sh, b, std::move(state));
}

void ShardedBalancer::serve(Shard& sh, std::uint32_t b,
                            std::shared_ptr<Request> state) {
  const Backend& be = backends_[b];
  const std::int64_t file = be.files[sh.next_file[b] % be.files.size()];
  ++sh.next_file[b];
  ++sh.dispatched;
  if (state->current_shard != state->home_shard) ++sh.federated;
  guest::GuestOs* os = be.os;
  guest::ApacheService* apache = be.apache;
  engine_.post(be.partition, rpc_latency_,
               [this, os, apache, file, state = std::move(state)]() mutable {
    // serve_file itself reports failure if the host went down between the
    // probe reply and this serve landing; the fleet retries on done(false).
    apache->serve_file(*os, file,
                       [this, state = std::move(state)](bool ok) mutable {
      const std::int32_t reply = state->reply_partition;
      engine_.post(reply, rpc_latency_, [ok, state = std::move(state)] {
        state->done(ok);
      });
    });
  });
}

void ShardedBalancer::next_ring_hop(std::shared_ptr<Request> state) {
  if (state->shards_left > 1) {
    // Spill over to the next shard on the ring; it continues with its own
    // cursors and membership view.
    --state->shards_left;
    const auto next = static_cast<std::size_t>(
        (state->current_shard + 1) % shards_.size());
    state->current_shard = static_cast<std::uint32_t>(next);
    state->probes_left =
        static_cast<std::uint32_t>(shards_[next].owned.size());
    engine_.post(shard_partition(next), rpc_latency_,
                 [this, state = std::move(state)]() mutable {
      try_shard(std::move(state));
    });
    return;
  }
  // The lap is done and no shard served: reject.
  ++shards_[state->current_shard].rejected;
  const std::int32_t reply = state->reply_partition;
  engine_.post(reply, rpc_latency_, [state = std::move(state)] {
    state->done(false);
  });
}

std::uint64_t ShardedBalancer::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.dispatched;
  return n;
}

std::uint64_t ShardedBalancer::rejected() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.rejected;
  return n;
}

std::uint64_t ShardedBalancer::federated() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.federated;
  return n;
}

namespace {

std::size_t flagged(const std::vector<std::uint8_t>& view) {
  return static_cast<std::size_t>(std::count_if(
      view.begin(), view.end(), [](std::uint8_t f) { return f != 0; }));
}

}  // namespace

std::size_t ShardedBalancer::evicted_backends(std::size_t shard) const {
  return flagged(shards_.at(shard).evicted);
}

std::size_t ShardedBalancer::crashed_backends(std::size_t shard) const {
  return flagged(shards_.at(shard).crashed);
}

std::uint64_t ShardedBalancer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& sh : shards_) {
    mix(sh.rr);
    mix(sh.dispatched);
    mix(sh.rejected);
    mix(sh.federated);
    for (const auto f : sh.next_file) mix(f);
    for (const auto e : sh.evicted) mix(e);
    mix(sh.crash_events);
    mix(sh.crashed_hosts);
    for (const auto c : sh.crashed) mix(c);
  }
  return h;
}

}  // namespace rh::cluster
