// Domain: a virtual machine as the VMM sees it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mm/domain_id.hpp"
#include "mm/p2m_table.hpp"
#include "simcore/types.hpp"
#include "vmm/event_channel.hpp"

namespace rh::vmm {

/// Hooks the guest kernel registers with the VMM. The VMM delivers the
/// suspend event through these (Sec. 4.2: in RootHammer the *VMM*, not
/// domain 0, sends the suspend event), and invokes the resume handler
/// after restoring domain state.
class GuestHooks {
 public:
  virtual ~GuestHooks() = default;

  /// Suspend event: the guest must run its suspend handler (detach
  /// devices) and then invoke `suspend_hypercall` exactly once.
  virtual void on_suspend_event(std::function<void()> suspend_hypercall) = 0;

  /// Called after the VMM restored the domain's execution state; the guest
  /// runs its resume handler (reattach devices, re-establish event
  /// channels) and then invokes `done` exactly once. `new_id` is the id of
  /// the re-created domain (domain ids change across resume, as in Xen).
  virtual void on_resume(DomainId new_id, std::function<void()> done) = 0;
};

/// Execution state saved by the on-memory suspend mechanism: "execution
/// context such as CPU registers and shared information such as the status
/// of event channels" plus the domain configuration -- 16 KB in the paper.
struct ExecState {
  static constexpr sim::Bytes kFootprint = 16 * sim::kKiB;

  std::uint64_t cpu_context = 0;    ///< token: all VCPU register files
  std::uint64_t shared_info = 0;    ///< token: shared-info page contents
  std::uint64_t device_config = 0;  ///< token: virtual device configuration
  std::uint64_t event_channels = 0; ///< EventChannelTable::state_token()

  void serialize(mm::ByteWriter& w) const;
  static ExecState deserialize(mm::ByteReader& r);

  bool operator==(const ExecState&) const = default;
};

/// Lifecycle of a domain within one VMM instance.
enum class DomainState : std::uint8_t {
  kCreated,            ///< shell exists, memory allocated, not running
  kRunning,
  kSuspending,         ///< suspend event delivered, handler running
  kSuspendedInMemory,  ///< frozen: image preserved in RAM (on-memory)
  kSavedToDisk,        ///< image written to disk (Xen-style save)
  kShuttingDown,
  kHalted,             ///< guest OS cleanly shut down
  kDead,               ///< destroyed; memory released
};

class Domain {
 public:
  Domain(DomainId id, std::string name, sim::Bytes memory_size, bool privileged);

  [[nodiscard]] DomainId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Bytes memory_size() const { return memory_size_; }
  [[nodiscard]] bool privileged() const { return privileged_; }

  [[nodiscard]] DomainState state() const { return state_; }
  void set_state(DomainState s) { state_ = s; }
  [[nodiscard]] bool running() const { return state_ == DomainState::kRunning; }

  [[nodiscard]] mm::P2mTable& p2m() { return p2m_; }
  [[nodiscard]] const mm::P2mTable& p2m() const { return p2m_; }

  [[nodiscard]] ExecState& exec() { return exec_; }
  [[nodiscard]] const ExecState& exec() const { return exec_; }

  [[nodiscard]] EventChannelTable& event_channels() { return event_channels_; }
  [[nodiscard]] const EventChannelTable& event_channels() const {
    return event_channels_;
  }

  [[nodiscard]] GuestHooks* hooks() const { return hooks_; }
  void set_hooks(GuestHooks* hooks) { hooks_ = hooks; }

  /// Number of pseudo-physical pages for `bytes` of domain memory.
  [[nodiscard]] static mm::Pfn pages_for(sim::Bytes bytes) {
    return static_cast<mm::Pfn>(bytes / sim::kPageSize);
  }

 private:
  DomainId id_;
  std::string name_;
  sim::Bytes memory_size_;
  bool privileged_;
  DomainState state_ = DomainState::kCreated;
  mm::P2mTable p2m_;
  ExecState exec_;
  EventChannelTable event_channels_;
  GuestHooks* hooks_ = nullptr;  // non-owning; guest kernel object
};

}  // namespace rh::vmm
