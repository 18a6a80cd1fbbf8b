#include "stream/fanin.hpp"

#include <gtest/gtest.h>

namespace netalytics::stream {
namespace {

class VecCollector final : public Collector {
 public:
  void emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

TEST(FanInTopK, SumsAcrossSourcesUnlikeMergeUpsert) {
  FanInTopK fanin(3, 2);
  // The same key counted independently by distinct children must *sum*:
  fanin.add(0, "url", 5);
  fanin.add(1, "url", 7);
  fanin.add(2, "url", 1);
  fanin.add(1, "other", 10);
  fanin.add(2, "small", 2);

  const Rankings global = fanin.global();
  ASSERT_EQ(global.entries().size(), 2u);
  EXPECT_EQ(global.entries()[0].key, "url");
  EXPECT_EQ(global.entries()[0].count, 13u);
  EXPECT_EQ(global.entries()[1].key, "other");
  EXPECT_EQ(global.entries()[1].count, 10u);

  // Contrast with Rankings::merge, which upserts the latest owner total.
  Rankings merged(2);
  merged.update("url", 5);
  Rankings other(2);
  other.update("url", 7);
  merged.merge(other);
  EXPECT_EQ(merged.entries()[0].count, 7u);  // upsert, not 12

  EXPECT_EQ(fanin.local(1).at("url"), 7u);
  EXPECT_EQ(fanin.total_updates(), 5u);
}

TEST(FanInTopK, RenderIsDeterministicAndRanked) {
  FanInTopK fanin(2, 10);
  fanin.add(0, "b", 2);
  fanin.add(1, "a", 2);
  fanin.add(0, "c", 9);
  const std::string first = fanin.render();
  EXPECT_EQ(first, fanin.render());
  // Equal counts break ties by key (Rankings order); c leads on count.
  EXPECT_EQ(first, "1 c 9\n2 a 2\n3 b 2\n");
}

// The federation parent adds keys by view into its decode scratch. Keys
// that share the small-string-buffer prefix and differ only past it must
// stay distinct, and the view path must render exactly as owned keys do.
TEST(FanInTopK, StringViewAddsMatchOwnedKeys) {
  const std::string prefix(24, 'k');  // past any small-string buffer
  const std::vector<std::string> keys = {prefix + "a", prefix + "b",
                                         prefix + "a", prefix + "c",
                                         prefix + "b", prefix + "a", "short"};
  FanInTopK owned(2, 10);
  FanInTopK viewed(2, 10);
  std::string scratch;  // reused, as the parent's decode scratch is
  for (std::size_t i = 0; i < keys.size(); ++i) {
    owned.add(i % 2, keys[i], 1);
    scratch = keys[i];
    viewed.add(i % 2, std::string_view(scratch), 1);
  }
  EXPECT_EQ(viewed.render(), owned.render());
  EXPECT_EQ(viewed.local(0), owned.local(0));
  EXPECT_EQ(viewed.local(1), owned.local(1));
  EXPECT_EQ(viewed.local(0).size(), 3u);  // a and b (past the prefix), short
  EXPECT_EQ(viewed.global().entries().front().key, prefix + "a");
  EXPECT_EQ(viewed.global().entries().front().count, 3u);
  EXPECT_EQ(viewed.total_updates(), keys.size());
}

TEST(FanInTopK, RejectsZeroSourcesAndClampsZeroK) {
  EXPECT_THROW(FanInTopK(0, 4), std::invalid_argument);
  FanInTopK one(1, 0);  // k clamps to 1
  one.add(0, "x", 1);
  one.add(0, "y", 5);
  EXPECT_EQ(one.global().entries().size(), 1u);
}

TEST(FanInSpout, DrainsLowestIndexedSourceFirst) {
  FanInSpout spout(3);
  spout.push(2, Tuple{.values = {Value{std::int64_t{20}}}, .trace = 0});
  spout.push(0, Tuple{.values = {Value{std::int64_t{1}}}, .trace = 7});
  spout.push(2, Tuple{.values = {Value{std::int64_t{21}}}, .trace = 0});
  spout.push(0, Tuple{.values = {Value{std::int64_t{2}}}, .trace = 0});
  EXPECT_EQ(spout.buffered(), 4u);

  VecCollector out;
  while (spout.next_tuple(out, 0)) {
  }
  ASSERT_EQ(out.tuples.size(), 4u);
  // Source 0 fully drains before source 2, regardless of push interleaving.
  EXPECT_EQ(as_i64(out.tuples[0].at(0)), 1);
  EXPECT_EQ(as_i64(out.tuples[1].at(0)), 2);
  EXPECT_EQ(as_i64(out.tuples[2].at(0)), 20);
  EXPECT_EQ(as_i64(out.tuples[3].at(0)), 21);
  EXPECT_EQ(out.tuples[0].trace, 7u);  // provenance rides along
  EXPECT_EQ(spout.buffered(), 0u);
  EXPECT_FALSE(spout.next_tuple(out, 0));
  EXPECT_THROW(FanInSpout(0), std::invalid_argument);
}

}  // namespace
}  // namespace netalytics::stream
