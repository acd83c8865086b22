#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"

namespace rh::net {

sim::Duration Link::bulk_duration(sim::Bytes size) const {
  return model_.latency + sim::transfer_time(size, model_.bulk_bandwidth_bps);
}

void Link::bulk_transfer(sim::Bytes size, sim::InlineCallback on_done) {
  bulk_transfer_at(size, model_.bulk_bandwidth_bps, std::move(on_done));
}

void Link::bulk_transfer_at(sim::Bytes size, double bps,
                            sim::InlineCallback on_done) {
  ensure(size >= 0, "Link::bulk_transfer: negative size");
  ensure(bps > 0, "Link::bulk_transfer: rate must be positive");
  ensure(static_cast<bool>(on_done), "Link::bulk_transfer: callback required");
  const double rate = std::min(bps, model_.bulk_bandwidth_bps);
  const sim::SimTime start = std::max(sim_.now(), bulk_busy_until_);
  bulk_busy_until_ = start + model_.latency + sim::transfer_time(size, rate);
  bulk_bytes_ += size;
  sim_.at(bulk_busy_until_, std::move(on_done));
}

}  // namespace rh::net
