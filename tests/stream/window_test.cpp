#include "stream/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace netalytics::stream {
namespace {

TEST(RollingCounter, RejectsZeroSlots) {
  EXPECT_THROW(RollingCounter(0), std::invalid_argument);
}

TEST(RollingCounter, CountsWithinWindow) {
  RollingCounter c(3);
  c.incr("a");
  c.incr("a", 2);
  c.incr("b");
  const auto totals = c.totals();
  EXPECT_EQ(totals.at("a"), 3u);
  EXPECT_EQ(totals.at("b"), 1u);
}

TEST(RollingCounter, AdvanceExpiresOldSlots) {
  RollingCounter c(2);  // window covers current + previous slot
  c.incr("a", 10);
  c.advance();
  c.incr("a", 1);
  EXPECT_EQ(c.totals().at("a"), 11u);  // both slots still in window
  c.advance();  // the slot holding 10 is reused/zeroed
  EXPECT_EQ(c.totals().at("a"), 1u);
  c.advance();
  EXPECT_TRUE(c.totals().empty());
  EXPECT_EQ(c.key_count(), 0u);  // fully-zero keys dropped
}

TEST(RollingCounter, KeysIndependent) {
  RollingCounter c(2);
  c.incr("a");
  c.advance();
  c.incr("b");
  const auto totals = c.totals();
  EXPECT_EQ(totals.at("a"), 1u);
  EXPECT_EQ(totals.at("b"), 1u);
}

TEST(Rankings, OrdersByCountDescending) {
  Rankings r(3);
  r.update("low", 1);
  r.update("high", 100);
  r.update("mid", 50);
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(r.entries()[0].key, "high");
  EXPECT_EQ(r.entries()[1].key, "mid");
  EXPECT_EQ(r.entries()[2].key, "low");
}

TEST(Rankings, TrimsToK) {
  Rankings r(2);
  r.update("a", 1);
  r.update("b", 2);
  r.update("c", 3);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.entries()[0].key, "c");
  EXPECT_EQ(r.entries()[1].key, "b");
}

TEST(Rankings, UpdateIsUpsertNotIncrement) {
  Rankings r(5);
  r.update("a", 10);
  r.update("a", 4);  // newer total replaces
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0].count, 4u);
}

TEST(Rankings, ReentryAfterEviction) {
  Rankings r(2);
  r.update("a", 10);
  r.update("b", 20);
  r.update("c", 5);   // evicted immediately
  r.update("c", 30);  // now beats everyone
  EXPECT_EQ(r.entries()[0].key, "c");
}

TEST(Rankings, MergeCombines) {
  Rankings a(3), b(3);
  a.update("x", 10);
  a.update("y", 5);
  b.update("z", 7);
  b.update("x", 12);
  a.merge(b);
  ASSERT_EQ(a.entries().size(), 3u);
  EXPECT_EQ(a.entries()[0].key, "x");
  EXPECT_EQ(a.entries()[0].count, 12u);  // merged value wins
  EXPECT_EQ(a.entries()[1].key, "z");
}

TEST(Rankings, DeterministicTieBreakByKey) {
  Rankings r(3);
  r.update("b", 5);
  r.update("a", 5);
  EXPECT_EQ(r.entries()[0].key, "a");
}

TEST(Rankings, ZeroKClampsToOne) {
  Rankings r(0);
  r.update("a", 1);
  r.update("b", 2);
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0].key, "b");
}

/// The reference Rankings::update: upsert, stable_sort by count descending
/// then key ascending, trim to k.
class NaiveRankings {
 public:
  explicit NaiveRankings(std::size_t k) : k_(k) {}
  void update(const std::string& key, std::uint64_t count) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const auto& e) { return e.key == key; });
    if (it != entries_.end()) {
      it->count = count;
    } else {
      entries_.push_back({key, count});
    }
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Rankings::Entry& a, const Rankings::Entry& b) {
                       if (a.count != b.count) return a.count > b.count;
                       return a.key < b.key;
                     });
    if (entries_.size() > k_) entries_.resize(k_);
  }
  const std::vector<Rankings::Entry>& entries() const { return entries_; }

 private:
  std::size_t k_;
  std::vector<Rankings::Entry> entries_;
};

TEST(Rankings, MatchesNaiveSortAndTrimOracle) {
  // Seeded upsert sequences: rising and falling counts, ties (counts drawn
  // from a narrow band, or copied from the k-th entry), and keys that fall
  // out of the ranking and come back.
  for (const std::size_t k : {1u, 3u, 10u}) {
    for (const std::uint64_t keys : {1u, 2u, 7u, 64u, 2000u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " keys=" << keys << " seed=" << seed);
        common::Rng rng(seed * 7919 + keys * 31 + k);
        Rankings fast(k);
        NaiveRankings oracle(k);
        std::vector<std::uint64_t> count(keys, 0);
        for (int step = 0; step < 4000; ++step) {
          // Skewed key choice: half the updates hit the first few keys.
          const std::uint64_t hot = std::min<std::uint64_t>(keys, 8);
          const std::uint64_t id = rng.bernoulli(0.5) ? rng.uniform(0, hot - 1)
                                                      : rng.uniform(0, keys - 1);
          std::uint64_t& c = count[id];
          switch (rng.uniform(0, 4)) {
            case 0: c += rng.uniform(1, 3); break;  // rise
            case 1: c -= std::min(c, rng.uniform(1, 3)); break;  // fall
            case 2: c = rng.uniform(0, 6); break;  // narrow band: ties
            case 3:  // tie with (or just around) the k-th entry
              if (!oracle.entries().empty()) {
                c = oracle.entries().back().count + rng.uniform(0, 2);
                c -= std::min<std::uint64_t>(c, 1);
              }
              break;
            default: c = rng.uniform(0, 1000); break;  // jump: evict / re-enter
          }
          std::string key = "key";
          key += std::to_string(id);
          fast.update(key, c);
          oracle.update(key, c);
          ASSERT_EQ(fast.entries(), oracle.entries()) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace netalytics::stream
