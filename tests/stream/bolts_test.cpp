#include "stream/bolts.hpp"

#include <gtest/gtest.h>

#include "../nf/record_goldens.hpp"
#include "common/byte_io.hpp"
#include "nf/record.hpp"
#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::CaptureCollector;

TEST(ParsingBolt, DeserializesBatchIntoTuples) {
  nf::Record r1;
  r1.topic = "http_get";
  r1.id = 11;
  r1.timestamp = 100;
  r1.fields = {std::string("request"), std::string("/a")};
  nf::Record r2 = r1;
  r2.id = 22;
  const std::vector<nf::Record> batch = {r1, r2};
  const auto payload = nf::serialize_batch(batch);

  ParsingBolt bolt;
  CaptureCollector out;
  bolt.execute(Tuple{{std::string(common::as_string_view(payload))}}, out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(as_u64(out.tuples[0].at(0)), 11u);
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 100u);
  EXPECT_EQ(as_str(out.tuples[0].at(2)), "request");
  EXPECT_EQ(as_str(out.tuples[0].at(3)), "/a");
  EXPECT_EQ(as_u64(out.tuples[1].at(0)), 22u);
}

/// The record path ParsingBolt used to take: deserialize into nf::Records,
/// then convert each into [id, ts, fields...].
std::vector<Tuple> tuples_via_records(std::span<const std::byte> payload) {
  std::vector<Tuple> out;
  for (const auto& rec : nf::deserialize_batch(payload)) {
    Tuple t;
    t.trace = rec.trace;
    t.values.emplace_back(std::uint64_t{rec.id});
    t.values.emplace_back(std::uint64_t{rec.timestamp});
    for (const auto& f : rec.fields) t.values.push_back(f);
    out.push_back(std::move(t));
  }
  return out;
}

/// Records of every field type and width; `uniform` keeps one topic (the
/// hoisted layout), otherwise topics alternate (the per-record layout).
/// `traced` samples every third record, the first and last included.
std::vector<nf::Record> sample_batch(bool uniform, bool traced) {
  std::vector<nf::Record> batch;
  for (std::uint64_t i = 0; i < 7; ++i) {
    nf::Record r;
    r.topic = uniform || i % 2 == 0 ? "http_get" : "mysql_query";
    r.id = 0x1000 + i;
    r.timestamp = 500 * i;
    for (std::uint64_t f = 0; f < i % 4; ++f) {
      switch ((i + f) % 4) {
        case 0: r.fields.emplace_back(-static_cast<std::int64_t>(i)); break;
        case 1: r.fields.emplace_back(std::uint64_t{i * f}); break;
        case 2: r.fields.emplace_back(0.25 * static_cast<double>(i)); break;
        default: r.fields.emplace_back(std::string(i, 'x')); break;
      }
    }
    if (traced && (i % 3 == 0 || i == 6)) r.trace = 0xabc0 + i;
    batch.push_back(std::move(r));
  }
  return batch;
}

Tuple payload_tuple(std::span<const std::byte> payload) {
  return Tuple{{std::string(common::as_string_view(payload))}};
}

TEST(ParsingBolt, EmitsExactlyTheRecordPathTuples) {
  ParsingBolt bolt;  // one bolt across batches: its decode buffer is reused
  for (const bool uniform : {true, false}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "uniform=" << uniform << " traced=" << traced);
      const auto payload = nf::serialize_batch(sample_batch(uniform, traced));
      CaptureCollector out;
      bolt.execute(payload_tuple(payload), out);
      const auto expected = tuples_via_records(payload);
      ASSERT_EQ(out.tuples.size(), 7u);
      EXPECT_EQ(out.tuples, expected);  // values and Tuple::trace
      EXPECT_EQ(out.tuples[0].trace != 0, traced);
    }
  }
}

TEST(ParsingBolt, CorruptBatchesThrowOutOfRangeAndEmitNothing) {
  // The allocation bombs must be rejected before any allocation sized by
  // their claimed counts (the ASan lane fails on an oversized request).
  for (const auto& payload : nf::goldens::allocation_bombs()) {
    ParsingBolt bolt;
    CaptureCollector out;
    EXPECT_THROW(bolt.execute(payload_tuple(payload), out), std::out_of_range);
    EXPECT_TRUE(out.tuples.empty());
  }
  // Every strict prefix of a valid traced batch is corrupt.
  const auto payload = nf::serialize_batch(sample_batch(false, true));
  ParsingBolt bolt;
  for (std::size_t n = 0; n < payload.size(); ++n) {
    CaptureCollector out;
    EXPECT_THROW(bolt.execute(payload_tuple(std::span(payload).first(n)), out),
                 std::out_of_range)
        << "prefix " << n;
    EXPECT_TRUE(out.tuples.empty());
  }
  CaptureCollector out;  // and the bolt still decodes a whole batch after
  bolt.execute(payload_tuple(payload), out);
  EXPECT_EQ(out.tuples, tuples_via_records(payload));
}

TEST(FilterBolt, DropsFailingTuples) {
  FilterBolt bolt([](const Tuple& t) { return as_u64(t.at(0)) % 2 == 0; });
  CaptureCollector out;
  for (std::uint64_t i = 0; i < 6; ++i) bolt.execute(Tuple{{i}}, out);
  ASSERT_EQ(out.tuples.size(), 3u);
  EXPECT_EQ(as_u64(out.tuples[1].at(0)), 2u);
}

Tuple conn_event(std::uint64_t id, std::uint64_t ts, const char* event) {
  return Tuple{{id, ts, std::string(event), std::uint64_t{0xa}, std::uint64_t{0xb},
                std::uint64_t{1}, std::uint64_t{2}}};
}

TEST(DiffBolt, ComputesStartEndDifference) {
  DiffConfig cfg;
  cfg.passthrough = {3, 4};
  DiffBolt bolt(cfg);
  CaptureCollector out;
  bolt.execute(conn_event(5, 1000, "start"), out);
  EXPECT_TRUE(out.tuples.empty());
  bolt.execute(conn_event(5, 4500, "end"), out);
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(as_u64(out.tuples[0].at(0)), 5u);
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 3500u);
  EXPECT_EQ(as_u64(out.tuples[0].at(2)), 0xau);  // passthrough from start
  EXPECT_EQ(bolt.pending(), 0u);
}

TEST(DiffBolt, EndWithoutStartIgnored) {
  DiffBolt bolt(DiffConfig{});
  CaptureCollector out;
  bolt.execute(conn_event(9, 100, "end"), out);
  EXPECT_TRUE(out.tuples.empty());
}

TEST(DiffBolt, IndependentIdsDoNotCross) {
  DiffBolt bolt(DiffConfig{});
  CaptureCollector out;
  bolt.execute(conn_event(1, 100, "start"), out);
  bolt.execute(conn_event(2, 200, "start"), out);
  bolt.execute(conn_event(2, 260, "end"), out);
  bolt.execute(conn_event(1, 150, "end"), out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(as_u64(out.tuples[0].at(0)), 2u);
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 60u);
  EXPECT_EQ(as_u64(out.tuples[1].at(1)), 50u);
}

TEST(DiffBolt, ClockSkewClampsToZero) {
  DiffBolt bolt(DiffConfig{});
  CaptureCollector out;
  bolt.execute(conn_event(1, 500, "start"), out);
  bolt.execute(conn_event(1, 400, "end"), out);  // end before start
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 0u);
}

TEST(DiffBolt, UnknownEventTokenIgnored) {
  DiffBolt bolt(DiffConfig{});
  CaptureCollector out;
  bolt.execute(conn_event(1, 100, "weird"), out);
  EXPECT_TRUE(out.tuples.empty());
  EXPECT_EQ(bolt.pending(), 0u);
}

TEST(JoinByIdBolt, JoinsBothOrders) {
  JoinConfig cfg;
  cfg.left_arity = 3;
  cfg.left_passthrough = {1};
  cfg.right_passthrough = {2};
  JoinByIdBolt bolt(cfg);
  CaptureCollector out;
  // Left first.
  bolt.execute(Tuple{{std::uint64_t{1}, std::uint64_t{500}, std::string("l")}}, out);
  bolt.execute(Tuple{{std::uint64_t{1}, std::uint64_t{0}, std::string("r1"),
                      std::string("extra")}},
               out);
  // Right first.
  bolt.execute(Tuple{{std::uint64_t{2}, std::uint64_t{0}, std::string("r2"),
                      std::string("extra")}},
               out);
  bolt.execute(Tuple{{std::uint64_t{2}, std::uint64_t{900}, std::string("l")}}, out);

  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(as_u64(out.tuples[0].at(0)), 1u);
  EXPECT_EQ(as_u64(out.tuples[0].at(1)), 500u);
  EXPECT_EQ(as_str(out.tuples[0].at(2)), "r1");
  EXPECT_EQ(as_u64(out.tuples[1].at(1)), 900u);
  EXPECT_EQ(bolt.pending(), 0u);
}

TEST(GroupAggBolt, AveragesByGroup) {
  GroupAggConfig cfg;
  cfg.group_indices = {0};
  cfg.value_index = 1;
  cfg.op = AggOp::avg;
  GroupAggBolt bolt(cfg);
  CaptureCollector out;
  bolt.execute(Tuple{{std::string("a"), 10.0}}, out);
  bolt.execute(Tuple{{std::string("a"), 20.0}}, out);
  bolt.execute(Tuple{{std::string("b"), 5.0}}, out);
  bolt.tick(0, out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(as_str(out.tuples[0].at(0)), "a");
  EXPECT_DOUBLE_EQ(as_f64(out.tuples[0].at(1)), 15.0);
  EXPECT_EQ(as_u64(out.tuples[0].at(2)), 2u);
  EXPECT_DOUBLE_EQ(as_f64(out.tuples[1].at(1)), 5.0);
}

class GroupAggOpTest
    : public ::testing::TestWithParam<std::pair<AggOp, double>> {};

TEST_P(GroupAggOpTest, ComputesExpected) {
  const auto [op, expected] = GetParam();
  GroupAggConfig cfg;
  cfg.group_indices = {0};
  cfg.value_index = 1;
  cfg.op = op;
  GroupAggBolt bolt(cfg);
  CaptureCollector out;
  for (const double v : {4.0, 1.0, 7.0}) {
    bolt.execute(Tuple{{std::string("g"), v}}, out);
  }
  bolt.tick(0, out);
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(as_f64(out.tuples[0].at(1)), expected);
}

INSTANTIATE_TEST_SUITE_P(Ops, GroupAggOpTest,
                         ::testing::Values(std::pair{AggOp::sum, 12.0},
                                           std::pair{AggOp::avg, 4.0},
                                           std::pair{AggOp::max, 7.0},
                                           std::pair{AggOp::min, 1.0},
                                           std::pair{AggOp::count, 3.0}));

TEST(GroupAggBolt, MultiFieldGroups) {
  GroupAggConfig cfg;
  cfg.group_indices = {0, 1};
  cfg.value_index = 2;
  cfg.op = AggOp::sum;
  GroupAggBolt bolt(cfg);
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}, std::uint64_t{2}, 10.0}}, out);
  bolt.execute(Tuple{{std::uint64_t{1}, std::uint64_t{3}, 10.0}}, out);
  bolt.execute(Tuple{{std::uint64_t{1}, std::uint64_t{2}, 5.0}}, out);
  bolt.tick(0, out);
  ASSERT_EQ(out.tuples.size(), 2u);
}

TEST(GroupAggBolt, ResetAfterEmitClearsWindows) {
  GroupAggConfig cfg;
  cfg.group_indices = {0};
  cfg.value_index = 1;
  cfg.op = AggOp::sum;
  cfg.reset_after_emit = true;
  GroupAggBolt bolt(cfg);
  CaptureCollector out;
  bolt.execute(Tuple{{std::string("a"), 1.0}}, out);
  bolt.tick(0, out);
  bolt.tick(0, out);  // nothing new: no emission
  ASSERT_EQ(out.tuples.size(), 1u);
  bolt.execute(Tuple{{std::string("a"), 2.0}}, out);
  bolt.tick(0, out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_DOUBLE_EQ(as_f64(out.tuples[1].at(1)), 2.0);  // window restarted
}

TEST(GroupAggBolt, CleanupEmitsFinalTableWhenNotTicking) {
  GroupAggConfig cfg;
  cfg.group_indices = {0};
  cfg.value_index = 1;
  cfg.op = AggOp::avg;
  cfg.emit_on_tick = false;
  GroupAggBolt bolt(cfg);
  CaptureCollector out;
  bolt.execute(Tuple{{std::string("a"), 3.0}}, out);
  bolt.tick(0, out);
  EXPECT_TRUE(out.tuples.empty());
  bolt.cleanup(0, out);
  ASSERT_EQ(out.tuples.size(), 1u);
}

TEST(SinkBolt, ForwardsToCallback) {
  std::vector<Tuple> seen;
  SinkBolt bolt([&seen](const Tuple& t) { seen.push_back(t); });
  CaptureCollector out;
  bolt.execute(Tuple{{std::uint64_t{1}}}, out);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_TRUE(out.tuples.empty());  // terminal
}

}  // namespace
}  // namespace netalytics::stream
