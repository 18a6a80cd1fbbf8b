#include "nf/combiner.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"

namespace netalytics::nf {
namespace {

using namespace std::string_view_literals;

/// A record of [kind, key, value] — the shape a parser view takes.
void emit(RecordSink& sink, std::string_view kind, FieldView key,
          std::uint64_t value, common::Timestamp ts, std::uint64_t trace = 0) {
  const FieldView fields[] = {kind, key, value};
  sink.emit({"p", 7, ts, fields, trace});
}

CombinerSpec spec(bool with_value, bool with_filter) {
  // Schema [id, ts, kind, key, value].
  return {.parser = "p",
          .topic = "q1.proc0.p",
          .key_fields = {3},
          .value_field = with_value ? 4 : kNoField,
          .filter_field = with_filter ? 2 : kNoField,
          .filter_equals = with_filter ? "request" : ""};
}

TEST(Combiner, FoldsCountSumMinMaxPerKeyAndShipsInKeyOrder) {
  VectorSink out;
  Combiner c(spec(true, false), out);
  common::Counter folded, filtered;
  c.bind_counters(&folded, &filtered);
  emit(c, "request", "/b"sv, 5, 100, 3);
  emit(c, "request", "/a"sv, 2, 300);
  emit(c, "request", "/b"sv, 9, 200, 8);
  emit(c, "request", "/b"sv, 1, 150, 2);
  EXPECT_TRUE(out.records.empty());  // nothing ships before the tick

  EXPECT_EQ(c.flush(1000), 2u);
  ASSERT_EQ(out.records.size(), 2u);
  const Record& a = out.records[0];
  EXPECT_EQ(a.topic, "q1.proc0.p");
  EXPECT_EQ(a.fields, (std::vector<FieldValue>{std::string("/a"), std::uint64_t{1},
                                               2.0, 2.0, 2.0}));
  EXPECT_EQ(a.timestamp, 300u);
  EXPECT_EQ(a.trace, 0u);
  const Record& b = out.records[1];
  EXPECT_EQ(b.fields, (std::vector<FieldValue>{std::string("/b"), std::uint64_t{3},
                                               15.0, 1.0, 9.0}));
  EXPECT_EQ(b.timestamp, 200u);  // newest contributor
  EXPECT_EQ(b.trace, 8u);        // max contributor trace
  EXPECT_EQ(folded.value(), 4u);
  EXPECT_EQ(filtered.value(), 0u);
  EXPECT_EQ(c.received(), 4u);

  // Cleared: the next tick starts from nothing.
  EXPECT_EQ(c.flush(2000), 0u);
  EXPECT_EQ(out.records.size(), 2u);
}

TEST(Combiner, FilterDropsRecordsAndCountOnlyShape) {
  VectorSink out;
  Combiner c(spec(false, true), out);
  common::Counter folded, filtered;
  c.bind_counters(&folded, &filtered);
  emit(c, "request", "/x"sv, 0, 10);
  emit(c, "response", std::uint64_t{200}, 0, 11);
  emit(c, "request", "/x"sv, 0, 12);
  c.flush(100);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].fields,
            (std::vector<FieldValue>{std::string("/x"), std::uint64_t{2}}));
  EXPECT_EQ(folded.value(), 2u);
  EXPECT_EQ(filtered.value(), 1u);
}

TEST(Combiner, MixedKeyTypesNeverCollide) {
  // The string "1" and the integer 1 (and the empty string) are distinct.
  VectorSink out;
  CombinerSpec s = spec(false, false);
  Combiner c(s, out);
  emit(c, "k", "1"sv, 0, 1);
  emit(c, "k", std::uint64_t{1}, 0, 2);
  emit(c, "k", std::int64_t{1}, 0, 3);
  emit(c, "k", ""sv, 0, 4);
  emit(c, "k", "1"sv, 0, 5);
  EXPECT_EQ(c.flush(10), 4u);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& r : out.records) {
    std::string key = std::to_string(r.fields[0].index());
    key += ':';
    key += std::holds_alternative<std::string>(r.fields[0]) ? as_str(r.fields[0])
                                                            : std::string("n");
    counts[key] = as_u64(r.fields[1]);
  }
  EXPECT_EQ(counts, (std::map<std::string, std::uint64_t>{
                        {"0:n", 1}, {"1:n", 1}, {"3:", 1}, {"3:1", 2}}));
}

TEST(Combiner, KeysAndValuesMayComeFromTheRecordHeader) {
  // Group by record id, fold the timestamp as the value.
  VectorSink out;
  Combiner c({.parser = "p",
              .topic = "t",
              .key_fields = {0},
              .value_field = 1,
              .filter_field = kNoField,
              .filter_equals = ""},
             out);
  const FieldView none[] = {"k"sv};
  c.emit({"p", 7, 10, none});
  c.emit({"p", 7, 30, none});
  c.emit({"p", 8, 20, none});
  c.flush(40);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].fields, (std::vector<FieldValue>{std::uint64_t{7},
                                                            std::uint64_t{2}, 40.0,
                                                            10.0, 30.0}));
  EXPECT_EQ(out.records[1].fields, (std::vector<FieldValue>{std::uint64_t{8},
                                                            std::uint64_t{1}, 20.0,
                                                            20.0, 20.0}));
}

TEST(Combiner, PassesEveryRecordToNext) {
  VectorSink partials, raw;
  Combiner c(spec(false, true), partials, &raw);
  emit(c, "request", "/x"sv, 0, 1);
  emit(c, "response", std::uint64_t{404}, 0, 2);
  EXPECT_EQ(raw.records.size(), 2u);  // filtered records still flow on
  c.flush(3);
  EXPECT_EQ(partials.records.size(), 1u);
}

TEST(Combiner, CurrentTraceTagsUntracedViews) {
  VectorSink out;
  Combiner c(spec(false, false), out);
  c.set_current_trace(41);
  emit(c, "k", "/t"sv, 0, 1);
  c.set_current_trace(0);
  emit(c, "k", "/t"sv, 0, 2, 5);
  c.flush(3);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].trace, 41u);
}

TEST(Combiner, BadFieldsThrowForTheMonitorToCount) {
  VectorSink out;
  Combiner c(spec(true, false), out);
  const FieldView string_value[] = {"k"sv, "/a"sv, "not a number"sv};
  EXPECT_THROW(c.emit({"p", 1, 1, string_value}), std::invalid_argument);
  const FieldView too_short[] = {"k"sv};
  EXPECT_THROW(c.emit({"p", 1, 1, too_short}), std::out_of_range);
}

class CombinerMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { parsers::register_builtin_parsers(); }
};

TEST_F(CombinerMonitorTest, ThreadedWorkersShipPartialsAtClose) {
  // Two workers each fold their share of the flows; stop() ships one
  // partial per URL per worker, whose counts add up to every request.
  std::mutex mutex;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t raw = 0;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 2, /*ship_raw=*/false}};
  CombinerSpec s;
  s.parser = "http_get";
  s.topic = "q1.proc0.http_get";
  s.key_fields = {3};  // [id, ts, kind, value]: the URL
  s.filter_field = 2;
  s.filter_equals = "request";
  cfg.combiners = {s};
  Monitor mon(cfg, [&](std::string_view topic, std::vector<std::byte> payload,
                       const BatchInfo&) {
    std::lock_guard lock(mutex);
    if (topic != "q1.proc0.http_get") {
      ++raw;
      return;
    }
    for (const auto& r : deserialize_batch(payload)) {
      counts[as_str(r.fields[0])] += as_u64(r.fields[1]);
    }
  });

  net::PacketPool pool(4096);
  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.flow_count = 64;
  gcfg.frame_size = 256;
  pktgen::TrafficGenerator gen(gcfg);
  mon.start();
  for (int i = 0; i < 3000; ++i) {
    auto pkt = pool.make_packet(gen.next_frame(), i);
    if (pkt) mon.inject(std::move(pkt));
  }
  mon.stop();

  const auto stats = mon.stats();
  std::uint64_t total = 0;
  for (const auto& [url, n] : counts) total += n;
  EXPECT_EQ(raw, 0u);
  EXPECT_GT(stats.parsed, 0u);
  EXPECT_EQ(total, stats.folded);
  EXPECT_EQ(stats.folded + stats.filtered, stats.parsed);
  EXPECT_LT(stats.records, stats.parsed);
}

}  // namespace
}  // namespace netalytics::nf
