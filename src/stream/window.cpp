#include "stream/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace netalytics::stream {

RollingCounter::RollingCounter(std::size_t slots) : slots_(slots) {
  if (slots == 0) throw std::invalid_argument("RollingCounter: slots must be > 0");
}

void RollingCounter::incr(std::string_view key, std::uint64_t by) {
  auto it = counts_.find(key);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(key), std::vector<std::uint64_t>(slots_, 0))
             .first;
  }
  it->second[head_] += by;
}

std::map<std::string, std::uint64_t> RollingCounter::totals() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, slots] : counts_) {
    std::uint64_t total = 0;
    for (const auto v : slots) total += v;
    if (total > 0) out.emplace(key, total);
  }
  return out;
}

bool RollingCounter::contains(std::string_view key) const {
  const auto it = counts_.find(key);
  return it != counts_.end() &&
         std::any_of(it->second.begin(), it->second.end(),
                     [](std::uint64_t v) { return v != 0; });
}

void RollingCounter::advance() {
  head_ = (head_ + 1) % slots_;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second[head_] = 0;
    const bool all_zero =
        std::all_of(it->second.begin(), it->second.end(),
                    [](std::uint64_t v) { return v == 0; });
    it = all_zero ? counts_.erase(it) : std::next(it);
  }
}

Rankings::Rankings(std::size_t k) : k_(k == 0 ? 1 : k) {}

namespace {

/// The ranking order: count descending, then key ascending. Keys are unique
/// within a ranking, so this is a strict total order over its entries.
bool ranks_before(std::uint64_t count, std::string_view key,
                  const Rankings::Entry& e) noexcept {
  if (count != e.count) return count > e.count;
  return key < e.key;
}

}  // namespace

void Rankings::update(const std::string& key, std::uint64_t count) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.key == key; });
  Entry entry{std::string(), count};
  if (it != entries_.end()) {
    entry.key = std::move(it->key);
    entries_.erase(it);
  } else if (entries_.size() >= k_ &&
             !ranks_before(count, key, entries_.back())) {
    return;  // would land past the k-th entry and be trimmed
  } else {
    entry.key = key;
  }
  // Entries stay sorted, so placing the one changed entry is the same as
  // re-sorting the whole ranking.
  const auto pos =
      std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
        return ranks_before(entry.count, entry.key, e);
      });
  entries_.insert(pos, std::move(entry));
  if (entries_.size() > k_) entries_.pop_back();
}

void Rankings::merge(const Rankings& other) {
  for (const auto& e : other.entries_) update(e.key, e.count);
}

}  // namespace netalytics::stream
