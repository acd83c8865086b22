// Sorted, coalesced runs over a 64-bit key space.
//
// Machine-memory state is made of long runs: next-fit allocation keeps a
// domain's frames contiguous, and only ballooning and domain teardown
// leave holes. RunMap stores such state as disjoint runs
// [first, first + count) keyed by their first key. Finding the run that
// holds a key and splitting a run cost O(log runs); a pass over the whole
// state costs O(runs), whatever the number of keys. Keys no run covers are
// gaps.
//
// Runs are kept coalesced: two runs that touch and whose values continue
// into each other are always one run, so equal maps hold equal runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

namespace rh::mm {

/// How a run's value varies along its keys.
enum class RunShape : std::uint8_t {
  kConstant,  ///< one value for every key (a frame owner)
  kAffine,    ///< the value at `first`, rising by one per key (an MFN)
};

template <typename Value, RunShape Shape>
class RunMap {
 public:
  struct Run {
    std::int64_t first = 0;
    std::int64_t count = 0;
    Value value{};  ///< the value at `first`

    [[nodiscard]] std::int64_t end() const { return first + count; }
    /// The value at `key`; first <= key < end().
    [[nodiscard]] Value at(std::int64_t key) const {
      if constexpr (Shape == RunShape::kAffine) {
        return static_cast<Value>(value + (key - first));
      } else {
        return value;
      }
    }
    bool operator==(const Run&) const = default;
  };

 private:
  using Map = std::map<std::int64_t, Run>;  // keyed by Run::first

 public:
  /// Walks the runs in key order.
  class Iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Run;
    using difference_type = std::ptrdiff_t;
    using pointer = const Run*;
    using reference = const Run&;

    Iterator() = default;
    explicit Iterator(typename Map::const_iterator it) : it_(it) {}
    const Run& operator*() const { return it_->second; }
    const Run* operator->() const { return &it_->second; }
    Iterator& operator++() {
      ++it_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++it_;
      return old;
    }
    Iterator& operator--() {
      --it_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator old = *this;
      --it_;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    typename Map::const_iterator it_;
  };

  [[nodiscard]] Iterator begin() const { return Iterator(runs_.begin()); }
  [[nodiscard]] Iterator end() const { return Iterator(runs_.end()); }
  [[nodiscard]] std::size_t size() const { return runs_.size(); }
  [[nodiscard]] bool empty() const { return runs_.empty(); }

  /// The first run that ends after `key`: the run holding it, or else the
  /// lowest run above it; end() when there is none.
  [[nodiscard]] Iterator from(std::int64_t key) const {
    auto it = runs_.upper_bound(key);
    if (it != runs_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second.end() > key) it = prev;
    }
    return Iterator(it);
  }

  /// The run holding `key`, or end() when `key` lies in a gap.
  [[nodiscard]] Iterator find(std::int64_t key) const {
    const Iterator it = from(key);
    return it != end() && it->first <= key ? it : end();
  }

  /// Sets keys [first, first + count) to `value` (the value at `first`),
  /// replacing whatever covered them.
  void assign(std::int64_t first, std::int64_t count, Value value) {
    if (count <= 0) return;
    erase(first, count);
    auto it = runs_.emplace(first, Run{first, count, value}).first;
    if (it != runs_.begin()) {
      const auto prev = std::prev(it);
      if (continues(prev->second, it->second)) {
        prev->second.count += it->second.count;
        runs_.erase(it);
        it = prev;
      }
    }
    const auto next = std::next(it);
    if (next != runs_.end() && continues(it->second, next->second)) {
      it->second.count += next->second.count;
      runs_.erase(next);
    }
  }

  /// Leaves keys [first, first + count) in a gap.
  void erase(std::int64_t first, std::int64_t count) {
    if (count <= 0) return;
    const std::int64_t last = first + count;
    split_at(first);
    split_at(last);
    runs_.erase(runs_.lower_bound(first), runs_.lower_bound(last));
  }

  bool operator==(const RunMap&) const = default;

 private:
  static bool continues(const Run& a, const Run& b) {
    return a.end() == b.first && a.at(b.first) == b.value;
  }

  /// Splits the run that holds `key` so that a run starts at `key`.
  void split_at(std::int64_t key) {
    auto it = runs_.upper_bound(key);
    if (it == runs_.begin()) return;
    --it;
    Run& run = it->second;
    if (run.first == key || run.end() <= key) return;
    const Run tail{key, run.end() - key, run.at(key)};
    run.count = key - run.first;
    runs_.emplace_hint(std::next(it), key, tail);
  }

  Map runs_;
};

}  // namespace rh::mm
