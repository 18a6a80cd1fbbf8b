#include "parsers/flow_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace netalytics::parsers {
namespace {

TEST(FlowStateMap, PutFindErase) {
  FlowStateMap<int> m(10);
  m.put(1, 100);
  m.put(2, 200);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 100);
  EXPECT_EQ(m.find(3), nullptr);
  m.erase(1);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlowStateMap, PutOverwritesExisting) {
  FlowStateMap<int> m(10);
  m.put(1, 100);
  m.put(1, 999);
  EXPECT_EQ(*m.find(1), 999);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlowStateMap, EvictsOldestWhenFull) {
  FlowStateMap<int> m(3);
  m.put(1, 1);
  m.put(2, 2);
  m.put(3, 3);
  m.put(4, 4);  // evicts key 1
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_NE(m.find(4), nullptr);
  EXPECT_EQ(m.evictions(), 1u);
}

TEST(FlowStateMap, EraseThenRefillDoesNotCorruptOrder) {
  FlowStateMap<int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  m.erase(1);
  m.put(3, 3);
  m.put(4, 4);  // evicts 2 (oldest remaining)
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_NE(m.find(3), nullptr);
  EXPECT_NE(m.find(4), nullptr);
}

TEST(FlowStateMap, ForEachVisitsAll) {
  FlowStateMap<int> m(10);
  m.put(1, 10);
  m.put(2, 20);
  int sum = 0;
  m.for_each([&](std::uint64_t, const int& v) { sum += v; });
  EXPECT_EQ(sum, 30);
}

TEST(FlowStateMap, ClearEmpties) {
  FlowStateMap<int> m(10);
  m.put(1, 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  m.put(1, 2);  // usable after clear
  EXPECT_EQ(*m.find(1), 2);
}

TEST(FlowStateMap, EraseMissingIsNoop) {
  FlowStateMap<int> m(4);
  m.erase(42);
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlowStateMap, StressManyInsertionsBounded) {
  FlowStateMap<int> m(100);
  for (std::uint64_t i = 0; i < 10000; ++i) m.put(i, static_cast<int>(i));
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.evictions(), 9900u);
  // The newest 100 keys survive.
  for (std::uint64_t i = 9900; i < 10000; ++i) EXPECT_NE(m.find(i), nullptr);
}

TEST(FlowStateMap, ForEachVisitsInInsertionOrder) {
  FlowStateMap<int> m(10);
  for (const std::uint64_t k : {7u, 3u, 9u, 1u}) m.put(k, static_cast<int>(k));
  m.erase(3);
  m.put(3, 3);   // re-inserted: now newest
  m.put(9, 90);  // overwrite keeps its place
  std::vector<std::uint64_t> keys;
  m.for_each([&](std::uint64_t k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{7, 9, 1, 3}));
}

TEST(FlowStateMap, ErasedSlotKeepsValueCapacityForReuse) {
  FlowStateMap<std::string> m(4);
  m.slot(1).assign(100, 'x');
  const std::size_t cap = m.find(1)->capacity();
  m.erase(1);
  std::string& reused = m.slot(2);  // takes the freed node
  EXPECT_GE(reused.capacity(), cap);
  const char* before = reused.data();
  reused.assign(60, 'y');  // fits: no reallocation
  EXPECT_EQ(reused.data(), before);
}

TEST(FlowStateMap, MatchesReferenceModelUnderRandomChurn) {
  // Random put/erase/find/clear against an ordered-list reference model,
  // with few distinct keys so probe runs collide, wrap and shift back.
  for (const std::size_t capacity : {1u, 3u, 17u, 64u}) {
    FlowStateMap<std::uint64_t> m(capacity);
    std::deque<std::pair<std::uint64_t, std::uint64_t>> model;  // FIFO
    std::uint64_t evictions = 0;
    common::Rng rng(capacity);
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = rng.uniform(0, 3 * capacity + 5) * 0x10000;
      auto it = std::find_if(model.begin(), model.end(),
                             [key](const auto& e) { return e.first == key; });
      switch (rng.uniform(0, 9)) {
        case 0: case 1: case 2: case 3: {
          const std::uint64_t v = rng.next_u64();
          m.put(key, v);
          if (it != model.end()) {
            it->second = v;
          } else {
            if (model.size() >= capacity) {
              model.pop_front();
              ++evictions;
            }
            model.emplace_back(key, v);
          }
          break;
        }
        case 4: case 5: case 6:
          m.erase(key);
          if (it != model.end()) model.erase(it);
          break;
        case 7:
          if (rng.uniform(0, 200) == 0) {
            m.clear();
            model.clear();
          }
          break;
        default: {
          const std::uint64_t* v = m.find(key);
          ASSERT_EQ(v != nullptr, it != model.end()) << "op " << op;
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second);
          }
        }
      }
      ASSERT_EQ(m.size(), model.size());
    }
    EXPECT_EQ(m.evictions(), evictions);
    using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    Entries seen;
    m.for_each([&](std::uint64_t k, const std::uint64_t& v) { seen.emplace_back(k, v); });
    EXPECT_EQ(seen, Entries(model.begin(), model.end()));
  }
}

}  // namespace
}  // namespace netalytics::parsers
