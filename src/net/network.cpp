#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"

namespace rh::net {

void Link::bulk_transfer_at(sim::Bytes size, double bps,
                            sim::InlineCallback on_done) {
  ensure(size >= 0, "Link::bulk_transfer_at: negative size");
  ensure(bps > 0, "Link::bulk_transfer_at: rate must be positive");
  ensure(static_cast<bool>(on_done), "Link::bulk_transfer_at: callback required");
  const double rate = std::min(bps, model_.bulk_bandwidth_bps);
  const sim::SimTime start = std::max(sim_.now(), bulk_busy_until_);
  bulk_busy_until_ = start + model_.latency + sim::transfer_time(size, rate);
  sim_.at(bulk_busy_until_, std::move(on_done));
}

}  // namespace rh::net
