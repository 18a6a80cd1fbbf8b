// Fan-in primitives for multi-stream merge (the federation parent's global
// topology stage, docs/FEDERATION.md): N indexed sub-streams — one per
// child engine — feed a single downstream consumer. Determinism rule:
// whenever per-source state is folded into a global view, sources are
// visited in source-index order, extending the executor contract
// (docs/DETERMINISM.md) across node boundaries.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stream/topology.hpp"
#include "stream/window.hpp"

namespace netalytics::stream {

/// Global top-k over N per-source key counters (the fan-in counterpart of
/// the Fig.-4 rankings bolts): add() charges a key under one source;
/// global() folds the per-source totals — iterating sources in index
/// order — and returns the k largest summed (key, count) pairs. Unlike
/// Rankings::merge (an upsert of one owner's latest totals), the fold
/// *sums* across sources, because distinct children count the same key
/// independently.
class FanInTopK {
 public:
  /// Per-source totals; the transparent comparator lets add() look a key
  /// up by view, so a key is copied only the first time a source sees it.
  using Counts = std::map<std::string, std::uint64_t, std::less<>>;

  FanInTopK(std::size_t sources, std::size_t k);

  void add(std::size_t source, std::string_view key, std::uint64_t by = 1);

  /// Per-source totals (exact, not truncated to k).
  const Counts& local(std::size_t source) const;

  /// Global top-k over the summed totals.
  Rankings global() const;

  /// Deterministic "rank key count" table of global(), one row per line.
  std::string render() const;

  std::size_t sources() const noexcept { return counts_.size(); }
  std::uint64_t total_updates() const noexcept { return updates_; }

 private:
  std::vector<Counts> counts_;
  std::size_t k_;
  std::uint64_t updates_ = 0;
};

/// A Spout over N externally-fed queues, drained in source-index order: the
/// bridge between a fan-in receiver (the federation parent) and a stream
/// topology. push() enqueues a tuple under its source; next_tuple() emits
/// the head of the lowest-indexed non-empty queue, so the tuple order seen
/// downstream is a pure function of queue contents — independent of the
/// interleaving in which sources were fed between polls.
class FanInSpout final : public Spout {
 public:
  explicit FanInSpout(std::size_t sources);

  void push(std::size_t source, Tuple tuple);

  bool next_tuple(Collector& out, common::Timestamp now) override;

  std::size_t buffered() const noexcept;

 private:
  std::vector<std::deque<Tuple>> queues_;
};

}  // namespace netalytics::stream
