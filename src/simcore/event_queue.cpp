#include "simcore/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"

namespace rh::sim {

std::uint32_t EventQueue::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  ensure(slots_.size() < kNil, "EventQueue: slot slab exhausted");
  if (slots_.size() == slots_.capacity()) {
    // Quadrupling (instead of the default doubling) keeps the amortized
    // relocation cost of the parallel slabs at ~1/3 element-move per push.
    const std::size_t cap = std::max<std::size_t>(64, slots_.capacity() * 4);
    slots_.reserve(cap);
    fns_.reserve(cap);
  }
  slots_.emplace_back();
  fns_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  fns_[slot] = InlineCallback{};
  s.pos = kNil;
  // Bumping the generation staleness-proofs every EventId ever issued for
  // this slot. Generation 0 is skipped so (slot 0, gen) never collides with
  // kInvalidEventId.
  if (++s.gen == 0) s.gen = 1;
  free_.push_back(slot);
}

void EventQueue::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i, const Entry& e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::sift_down(std::size_t i, const Entry& e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    if (!before(heap_[least], e)) break;
    place(i, heap_[least]);
    i = least;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  // The last entry fills the hole. It may sort before the hole's parent
  // only when the hole was not on its ancestor path (a cancel deep in
  // another subtree), so exactly one of the two sifts moves it.
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

EventId EventQueue::push(SimTime t, InlineCallback fn) {
  ensure(static_cast<bool>(fn), "EventQueue::push: callback must not be empty");
  const std::uint32_t slot = alloc_slot();
  fns_[slot] = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{t, next_seq_++, slot});
  return make_id(slot, slots_[slot].gen);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.pos == kNil || s.gen != gen) return false;
  remove_at(s.pos);
  free_slot(slot);
  return true;
}

SimTime EventQueue::next_time() const {
  ensure(!heap_.empty(), "EventQueue::next_time: queue is empty");
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  ensure(!heap_.empty(), "EventQueue::pop: queue is empty");
  const std::uint32_t slot = heap_.front().slot;
  Popped out{heap_.front().time, make_id(slot, slots_[slot].gen),
             std::move(fns_[slot])};
  remove_at(0);
  free_slot(slot);
  return out;
}

void EventQueue::clear() {
  // Slot order, not heap order, so the free stack -- and with it the slot
  // each later push reuses -- does not depend on the heap's shape.
  const auto n = static_cast<std::uint32_t>(slots_.size());
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    if (slots_[slot].pos != kNil) free_slot(slot);
  }
  heap_.clear();
}

}  // namespace rh::sim
