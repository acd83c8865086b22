#include "guest/service.hpp"

#include "guest/guest_os.hpp"
#include "simcore/check.hpp"

namespace rh::guest {

void Service::start(GuestOs& os, std::function<void()> done) {
  ensure(static_cast<bool>(done), "Service::start: callback required");
  ensure(!running_, [this] {
    return "Service::start: '" + spec_.name + "' already running";
  });
  auto finish = [this, &os, epoch = interrupt_epoch_, done = std::move(done)] {
    // A force_stop() while we were starting means the VM lost power: the
    // half-started process is gone, and the boot chain that requested the
    // start was abandoned with it.
    if (epoch != interrupt_epoch_) return;
    running_ = true;
    ++generation_;
    on_started(os);
    done();
  };
  os.host().machine().cpu().run(
      spec_.start_cpu, [this, &os, finish = std::move(finish)]() mutable {
        if (spec_.start_io > 0) {
          os.host().machine().disk().read(spec_.start_io,
                                          hw::Disk::Access::kSequential,
                                          std::move(finish));
        } else {
          finish();
        }
      });
}

void Service::force_stop() {
  ++interrupt_epoch_;
  running_ = false;
}

void Service::stop(GuestOs& os, std::function<void()> done) {
  ensure(static_cast<bool>(done), "Service::stop: callback required");
  if (!running_) {
    done();
    return;
  }
  // Listening sockets close first: requests are refused from this moment.
  running_ = false;
  os.host().sim().after(spec_.stop_wait, std::move(done));
}

}  // namespace rh::guest
