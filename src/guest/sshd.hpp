// The ssh server: the paper's lightweight service (Fig. 6a).
#pragma once

#include "guest/service.hpp"
#include "net/tcp.hpp"

namespace rh::guest {

class SshService : public Service {
 public:
  SshService()
      : Service({/*name=*/"sshd",
                 /*start_cpu=*/500 * sim::kMillisecond,
                 /*start_io=*/4 * sim::kMiB,
                 /*stop_wait=*/300 * sim::kMillisecond}) {}

  /// Fate of a TCP segment arriving now for a session established against
  /// service generation `session_generation` (Sec. 5.3):
  ///  - host unreachable / OS not running  -> silently dropped (retransmit)
  ///  - service stopped gracefully         -> FIN (session ends)
  ///  - service restarted (new generation) -> RST (state lost)
  ///  - otherwise                          -> ACK
  [[nodiscard]] net::SegmentOutcome segment_outcome(
      const GuestOs& os, std::uint64_t session_generation) const;
};

}  // namespace rh::guest
