// Rolling-window primitives for the counting/ranking bolts, after the
// storm-starter "Rolling Top Words" lineage the paper's top-k topology
// extends (§5.3): a slot-based counter tracks per-key counts over the last
// N window slots, and Rankings keeps the k largest (key, count) pairs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace netalytics::stream {

/// Per-key counter over a circular window of slots. Advancing the window
/// zeroes the oldest slot, so totals always cover the last `slots` windows.
class RollingCounter {
 public:
  explicit RollingCounter(std::size_t slots);

  void incr(std::string_view key, std::uint64_t by = 1);

  /// Totals over the whole window, in key order.
  std::map<std::string, std::uint64_t> totals() const;

  /// Whether `key` has a nonzero total over the window.
  bool contains(std::string_view key) const;

  /// Advance to the next slot, zeroing what it previously held and dropping
  /// keys whose total became zero.
  void advance();

  std::size_t slots() const noexcept { return slots_; }
  std::size_t key_count() const noexcept { return counts_.size(); }

 private:
  /// Transparent so string_view lookups need no temporary string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::size_t slots_;
  std::size_t head_ = 0;
  std::unordered_map<std::string, std::vector<std::uint64_t>, KeyHash,
                     std::equal_to<>>
      counts_;
};

/// Top-k rankings by count, descending, ties by key ascending. update() is
/// an upsert with the key's latest total (not an increment).
class Rankings {
 public:
  explicit Rankings(std::size_t k);

  /// A key that is not ranked and would sort after the k-th entry of a
  /// full ranking is rejected without touching the entries — the result of
  /// inserting it and trimming back to k.
  void update(const std::string& key, std::uint64_t count);
  void merge(const Rankings& other);

  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    bool operator==(const Entry&) const = default;
  };

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t max_size() const noexcept { return k_; }

 private:
  std::size_t k_;
  std::vector<Entry> entries_;
};

}  // namespace netalytics::stream
