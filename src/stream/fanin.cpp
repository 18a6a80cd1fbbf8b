#include "stream/fanin.hpp"

#include <stdexcept>

namespace netalytics::stream {

FanInTopK::FanInTopK(std::size_t sources, std::size_t k)
    : counts_(sources), k_(k == 0 ? 1 : k) {
  if (sources == 0) {
    throw std::invalid_argument("FanInTopK: sources must be > 0");
  }
}

void FanInTopK::add(std::size_t source, std::string_view key,
                    std::uint64_t by) {
  Counts& counts = counts_.at(source);
  const auto it = counts.lower_bound(key);
  if (it != counts.end() && it->first == key) {
    it->second += by;
  } else {
    counts.emplace_hint(it, key, by);
  }
  updates_ += 1;
}

const FanInTopK::Counts& FanInTopK::local(std::size_t source) const {
  return counts_.at(source);
}

Rankings FanInTopK::global() const {
  // Child-index merge order (docs/FEDERATION.md). The sum itself is
  // commutative; the ordered walk makes the fold — and anything a future
  // non-commutative consumer hangs off it — reproducible by construction.
  std::map<std::string, std::uint64_t> total;
  for (const auto& source : counts_) {
    for (const auto& [key, count] : source) total[key] += count;
  }
  Rankings r(k_);
  for (const auto& [key, count] : total) r.update(key, count);
  return r;
}

std::string FanInTopK::render() const {
  std::string out;
  std::uint64_t rank = 1;
  const Rankings ranked = global();
  for (const auto& e : ranked.entries()) {
    out += std::to_string(rank++);
    out += ' ';
    out += e.key;
    out += ' ';
    out += std::to_string(e.count);
    out += '\n';
  }
  return out;
}

FanInSpout::FanInSpout(std::size_t sources) : queues_(sources) {
  if (sources == 0) {
    throw std::invalid_argument("FanInSpout: sources must be > 0");
  }
}

void FanInSpout::push(std::size_t source, Tuple tuple) {
  queues_.at(source).push_back(std::move(tuple));
}

bool FanInSpout::next_tuple(Collector& out, common::Timestamp /*now*/) {
  for (auto& q : queues_) {
    if (q.empty()) continue;
    out.emit(std::move(q.front()));
    q.pop_front();
    return true;
  }
  return false;
}

std::size_t FanInSpout::buffered() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

}  // namespace netalytics::stream
