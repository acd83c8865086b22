// Point-to-point network link model.
//
// Client and server hosts are connected by gigabit Ethernet. The link adds
// propagation latency; bulk bandwidth is modelled at the NIC (transmit
// queue) so that all VMs on a host share the host's uplink.
#pragma once

#include "simcore/inline_callback.hpp"
#include "simcore/simulation.hpp"
#include "simcore/types.hpp"

namespace rh::net {

struct LinkModel {
  sim::Duration latency = 200;  ///< one-way propagation, microseconds
  double bulk_bandwidth_bps = 117.0e6;  ///< for link-level bulk transfers
};

/// A network link with one-way latency, carrying bulk transfers (used by
/// live migration) that occupy the link FIFO-style.
class Link {
 public:
  Link(sim::Simulation& sim, LinkModel model) : sim_(sim), model_(model) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Transfers `size` bytes over the link at `bps` (capped at the link's
  /// own bandwidth); the link is occupied for the transfer's duration
  /// (subsequent bulk transfers queue behind it). Live migration
  /// throttles itself this way.
  void bulk_transfer_at(sim::Bytes size, double bps,
                        sim::InlineCallback on_done);

  [[nodiscard]] sim::Duration latency() const { return model_.latency; }

 private:
  sim::Simulation& sim_;
  LinkModel model_;
  sim::SimTime bulk_busy_until_ = 0;
};

}  // namespace rh::net
