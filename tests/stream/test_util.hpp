// Shared helpers for stream-engine tests.
#pragma once

#include <string>
#include <vector>

#include "stream/topology.hpp"

namespace netalytics::stream::testing {

/// Key "k<n>". Built by append: GCC 12 at -O3 reports a false-positive
/// -Wrestrict for `"k" + std::to_string(n)`.
inline std::string key_of(int n) {
  std::string key = "k";
  key += std::to_string(n);
  return key;
}

/// Collects emissions for direct bolt unit tests.
class CaptureCollector final : public Collector {
 public:
  void emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Spout that replays a fixed tuple list once.
class ListSpout final : public Spout {
 public:
  explicit ListSpout(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {}
  bool next_tuple(Collector& out, common::Timestamp /*now*/ = 0) override {
    if (cursor_ >= tuples_.size()) return false;
    out.emit(tuples_[cursor_++]);
    return true;
  }

 private:
  std::vector<Tuple> tuples_;
  std::size_t cursor_ = 0;
};

}  // namespace netalytics::stream::testing
