#include "vmm/domain.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::vmm {

void ExecState::serialize(mm::ByteWriter& w) const {
  w.u64(cpu_context);
  w.u64(shared_info);
  w.u64(device_config);
  w.u64(event_channels);
}

ExecState ExecState::deserialize(mm::ByteReader& r) {
  ExecState s;
  s.cpu_context = r.u64();
  s.shared_info = r.u64();
  s.device_config = r.u64();
  s.event_channels = r.u64();
  return s;
}

Domain::Domain(DomainId id, std::string name, sim::Bytes memory_size,
               bool privileged)
    : id_(id),
      name_(std::move(name)),
      memory_size_(memory_size),
      privileged_(privileged),
      p2m_(pages_for(memory_size)) {
  ensure(memory_size > 0 && memory_size % sim::kPageSize == 0,
         "Domain: memory size must be a positive multiple of the page size");
}

}  // namespace rh::vmm
