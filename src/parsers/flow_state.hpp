// Bounded per-flow state map shared by the stateful parsers. Parsers must
// run at line rate, so state is capped: when full, the oldest entry is
// evicted (long-lived idle flows lose tracking rather than the monitor
// losing memory).
//
// Steady state allocates nothing. Entries live in a node pool threaded on
// an intrusive FIFO (insertion order, for eviction and for_each); an
// open-addressing index of node numbers finds them. An erased node goes to
// a free list with its value intact, so the next insert that takes it can
// overwrite the value in place — a std::string member keeps its capacity.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace netalytics::parsers {

template <typename V>
class FlowStateMap {
 public:
  explicit FlowStateMap(std::size_t capacity = 65536)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Find existing state; nullptr if absent.
  V* find(std::uint64_t key) {
    const std::size_t pos = locate(key);
    return pos == kNotFound ? nullptr : &nodes_[index_[pos]].value;
  }

  /// The state of `key`, inserted (evicting the oldest entry when full) if
  /// absent. A new entry's value is a recycled one — whatever an erased
  /// entry left there — so callers overwrite it in place.
  V& slot(std::uint64_t key) {
    if (const std::size_t pos = locate(key); pos != kNotFound) {
      return nodes_[index_[pos]].value;
    }
    if (size_ >= capacity_) {
      erase(nodes_[head_].key);
      ++evictions_;
    }
    if ((size_ + 1) * 2 > index_.size()) grow_index();
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& node = nodes_[n];
    node.key = key;
    node.prev = tail_;
    node.next = kNil;
    (tail_ == kNil ? head_ : nodes_[tail_].next) = n;
    tail_ = n;
    std::size_t pos = home(key);
    while (index_[pos] != kNil) pos = (pos + 1) & mask();
    index_[pos] = n;
    ++size_;
    return node.value;
  }

  /// Insert (or overwrite) state, evicting the oldest entry when full. An
  /// overwrite keeps the entry's place in eviction order.
  V& put(std::uint64_t key, V value) {
    V& v = slot(key);
    v = std::move(value);
    return v;
  }

  void erase(std::uint64_t key) {
    std::size_t pos = locate(key);
    if (pos == kNotFound) return;
    const std::uint32_t n = index_[pos];
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole, so lookups never meet a tombstone.
    for (std::size_t next = (pos + 1) & mask(); index_[next] != kNil;
         next = (next + 1) & mask()) {
      const std::size_t want = home(nodes_[index_[next]].key);
      const bool stays = pos <= next ? (pos < want && want <= next)
                                     : (pos < want || want <= next);
      if (!stays) {
        index_[pos] = index_[next];
        pos = next;
      }
    }
    index_[pos] = kNil;
    Node& node = nodes_[n];
    (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
    node.next = free_;
    free_ = n;
    --size_;
  }

  std::size_t size() const noexcept { return size_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Iterate over (key, value) pairs in insertion order; F may not mutate
  /// the map.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
      f(nodes_[n].key, nodes_[n].value);
    }
  }

  void clear() {
    while (head_ != kNil) erase(nodes_[head_].key);
  }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kNotFound = std::numeric_limits<std::size_t>::max();

  struct Node {
    std::uint64_t key = 0;
    V value{};
    std::uint32_t prev = kNil;  // FIFO neighbours; `next` doubles as the
    std::uint32_t next = kNil;  // free-list link of an erased node
  };

  std::size_t mask() const noexcept { return index_.size() - 1; }
  std::size_t home(std::uint64_t key) const noexcept {
    // Fibonacci hashing: flow hashes are already mixed, but tests and
    // callers also use small sequential keys.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::size_t locate(std::uint64_t key) const noexcept {
    if (index_.empty()) return kNotFound;
    for (std::size_t pos = home(key);; pos = (pos + 1) & mask()) {
      const std::uint32_t n = index_[pos];
      if (n == kNil) return kNotFound;
      if (nodes_[n].key == key) return pos;
    }
  }

  /// Double the index (16 slots at first) and re-insert every live node.
  void grow_index() {
    const std::size_t slots = index_.empty() ? 16 : index_.size() * 2;
    index_.assign(slots, kNil);
    shift_ = 64;
    for (std::size_t s = slots; s > 1; s >>= 1) --shift_;
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
      std::size_t pos = home(nodes_[n].key);
      while (index_[pos] != kNil) pos = (pos + 1) & mask();
      index_[pos] = n;
    }
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> index_;  // node numbers, kNil = empty
  unsigned shift_ = 64;
  std::uint32_t head_ = kNil;  // oldest live node
  std::uint32_t tail_ = kNil;  // newest live node
  std::uint32_t free_ = kNil;  // erased nodes, values kept for reuse
  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace netalytics::parsers
