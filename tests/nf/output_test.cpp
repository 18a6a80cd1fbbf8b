#include "nf/output.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace netalytics::nf {
namespace {

// Emit an owned Record through the parser-facing view API.
void emit(RecordSink& sink, const Record& r) {
  std::vector<FieldView> fields;
  for (const FieldValue& f : r.fields) fields.push_back(view_of(f));
  sink.emit({r.topic, r.id, r.timestamp, fields, r.trace});
}

struct CapturedBatch {
  std::string topic;
  std::vector<Record> records;
};

Record make_record(const std::string& topic, std::uint64_t id) {
  Record r;
  r.topic = topic;
  r.id = id;
  r.fields = {std::uint64_t{id * 2}};
  return r;
}

TEST(OutputInterface, BatchesByCount) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      3);

  emit(out, make_record("a", 1));
  emit(out, make_record("a", 2));
  EXPECT_TRUE(batches.empty());  // below batch size
  emit(out, make_record("a", 3));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].topic, "a");
  ASSERT_EQ(batches[0].records.size(), 3u);
  EXPECT_EQ(batches[0].records[1].id, 2u);
}

TEST(OutputInterface, TopicsBatchIndependently) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      2);
  emit(out, make_record("a", 1));
  emit(out, make_record("b", 2));
  EXPECT_TRUE(batches.empty());
  emit(out, make_record("a", 3));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].topic, "a");
}

TEST(OutputInterface, FlushShipsPartialBatches) {
  std::vector<CapturedBatch> batches;
  OutputInterface out(
      [&](std::string_view topic, std::vector<std::byte> payload, const BatchInfo&) {
        batches.push_back({std::string(topic), deserialize_batch(payload)});
      },
      100);
  emit(out, make_record("a", 1));
  emit(out, make_record("b", 2));
  out.flush();
  EXPECT_EQ(batches.size(), 2u);
  out.flush();  // nothing pending: no empty batches
  EXPECT_EQ(batches.size(), 2u);
}

TEST(OutputInterface, StatsAccumulate) {
  OutputInterface out([](std::string_view, std::vector<std::byte>, const BatchInfo&) {},
                      2);
  emit(out, make_record("a", 1));
  emit(out, make_record("a", 2));
  emit(out, make_record("a", 3));
  out.flush();
  const auto s = out.stats();
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(OutputInterface, ZeroBatchSizeBehavesAsOne) {
  int batches = 0;
  OutputInterface out(
      [&](std::string_view, std::vector<std::byte>, const BatchInfo&) { ++batches; }, 0);
  emit(out, make_record("a", 1));
  EXPECT_EQ(batches, 1);
}

TEST(OutputInterface, RecordCountArgumentMatches) {
  std::size_t last_count = 0;
  OutputInterface out(
      [&](std::string_view, std::vector<std::byte>, const BatchInfo& info) {
        last_count = info.records;
      },
      4);
  for (int i = 0; i < 4; ++i) emit(out, make_record("a", i));
  EXPECT_EQ(last_count, 4u);
}

// ---- Differential: encode-at-emit vs serialize-at-ship -------------------

// What one ship() handed its sink, copied out of the call.
struct Shipped {
  std::string topic;
  std::vector<std::byte> payload;
  std::size_t records = 0;
  common::Timestamp ship_time = 0;
  std::vector<std::uint64_t> traces;

  bool operator==(const Shipped&) const = default;
};

// The batching contract written the direct way: owned Records held per
// topic in an ordered map and serialized with serialize_batch when a batch
// ships. Stamps go through per-record StageTracer::stamp calls.
class OracleOutput {
 public:
  OracleOutput(std::size_t batch_records, common::StageTracer& tracer,
               common::TraceRecorder& recorder)
      : batch_records_(batch_records == 0 ? 1 : batch_records),
        tracer_(tracer),
        recorder_(recorder) {}

  void set_current_trace(std::uint64_t trace) { current_trace_ = trace; }

  void emit(Record r) {
    if (r.trace == 0) r.trace = current_trace_;
    auto& batch = pending_[r.topic];
    batch.push_back(std::move(r));
    if (batch.size() >= batch_records_) {
      ship(batch.back().topic, batch, batch.back().timestamp);
    }
  }

  void flush(common::Timestamp now) {
    for (auto& [topic, batch] : pending_) {
      if (!batch.empty()) ship(topic, batch, now);
    }
  }

  std::vector<Shipped> shipped;
  OutputStats stats;

 private:
  void ship(const std::string& topic, std::vector<Record>& batch,
            common::Timestamp ship_time) {
    Shipped s{topic, serialize_batch(batch), batch.size(), ship_time, {}};
    for (const Record& r : batch) {
      if (ship_time != 0) {
        tracer_.stamp(common::StageTracer::Stage::emit, ship_time, r.timestamp);
      }
      if (r.trace == 0) continue;
      s.traces.push_back(r.trace);
      recorder_.stamp(r.trace, common::TraceStage::emit, r.timestamp,
                      ship_time != 0 ? ship_time : r.timestamp);
    }
    stats.records += batch.size();
    stats.bytes += s.payload.size();
    ++stats.batches;
    shipped.push_back(std::move(s));
    batch.clear();
  }

  std::size_t batch_records_;
  common::StageTracer& tracer_;
  common::TraceRecorder& recorder_;
  std::uint64_t current_trace_ = 0;
  std::map<std::string, std::vector<Record>, std::less<>> pending_;
};

std::string random_string(common::Rng& rng) {
  std::string s(rng.uniform(0, 3) == 0 ? 0 : rng.uniform(1, 40), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform(0, 255));
  return s;
}

Record random_record(common::Rng& rng, const std::vector<std::string>& topics) {
  Record r;
  r.topic = topics[rng.uniform(0, topics.size() - 1)];
  r.id = rng.next_u64();
  // Timestamp 0 (unknown origin) exercises the dropped-stamp path.
  r.timestamp = rng.uniform(0, 9) == 0 ? 0 : rng.uniform(1, 5'000'000);
  const std::size_t fields = rng.uniform(0, 6);
  for (std::size_t i = 0; i < fields; ++i) {
    switch (rng.uniform(0, 3)) {
      case 0: r.fields.emplace_back(static_cast<std::int64_t>(rng.next_u64())); break;
      case 1: r.fields.emplace_back(rng.next_u64()); break;
      case 2: r.fields.emplace_back(rng.uniform_real(-1e12, 1e12)); break;
      default: r.fields.emplace_back(random_string(rng)); break;
    }
  }
  if (rng.uniform(0, 4) == 0) r.trace = rng.uniform(1, 1'000'000);
  return r;
}

common::MetricsSnapshot::HistogramSample emit_histogram(
    const common::MetricsRegistry& registry) {
  const auto snap = registry.snapshot();
  const auto* h = snap.find_histogram("t.stage.emit");
  return h != nullptr ? *h : common::MetricsSnapshot::HistogramSample{};
}

TEST(OutputInterface, EncodeAtEmitMatchesSerializeAtShip) {
  const std::vector<std::string> all_topics = {"mysql_query", "http_get", "a"};
  for (const std::size_t batch_records : {1u, 2u, 32u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "batch_records=" << batch_records
                                      << " seed=" << seed);
      common::Rng rng(seed * 1000 + batch_records);
      // 1-3 interleaved topics, inserted out of order so ship order has to
      // come from the topic sort, not from first use.
      const std::vector<std::string> topics(
          all_topics.begin(),
          all_topics.begin() + static_cast<std::ptrdiff_t>(rng.uniform(1, 3)));

      common::MetricsRegistry real_metrics;
      common::MetricsRegistry oracle_metrics;
      common::StageTracer real_tracer(real_metrics, "t");
      common::StageTracer oracle_tracer(oracle_metrics, "t");
      common::TraceRecorder real_recorder({.sample_denominator = 1});
      common::TraceRecorder oracle_recorder({.sample_denominator = 1});

      std::vector<Shipped> shipped;
      OutputInterface out(
          [&](std::string_view topic, std::vector<std::byte> payload,
              const BatchInfo& info) {
            shipped.push_back({std::string(topic), std::move(payload), info.records,
                               info.ship_time,
                               {info.traces.begin(), info.traces.end()}});
          },
          batch_records);
      out.set_tracer(&real_tracer);
      out.set_trace_recorder(&real_recorder);
      OracleOutput oracle(batch_records, oracle_tracer, oracle_recorder);

      const std::size_t emits = rng.uniform(0, 300);
      for (std::size_t i = 0; i < emits; ++i) {
        if (rng.uniform(0, 7) == 0) {
          // Packet-level provenance context, as the monitor sets it.
          const std::uint64_t trace = rng.uniform(0, 1) == 0 ? 0 : rng.uniform(1, 99);
          out.set_current_trace(trace);
          oracle.set_current_trace(trace);
        }
        const Record r = random_record(rng, topics);
        emit(out, r);
        oracle.emit(r);
        if (rng.uniform(0, 19) == 0) {
          // Flush at a random point; now = 0 is the threaded-mode "unknown".
          const common::Timestamp now =
              rng.uniform(0, 3) == 0 ? 0 : rng.uniform(1, 6'000'000);
          out.flush(now);
          oracle.flush(now);
        }
      }
      out.flush(7'000'000);
      oracle.flush(7'000'000);

      ASSERT_EQ(shipped.size(), oracle.shipped.size());
      for (std::size_t b = 0; b < shipped.size(); ++b) {
        SCOPED_TRACE(testing::Message() << "batch " << b);
        EXPECT_EQ(shipped[b].topic, oracle.shipped[b].topic);
        EXPECT_EQ(shipped[b].payload, oracle.shipped[b].payload);
        EXPECT_EQ(shipped[b].records, oracle.shipped[b].records);
        EXPECT_EQ(shipped[b].ship_time, oracle.shipped[b].ship_time);
        EXPECT_EQ(shipped[b].traces, oracle.shipped[b].traces);
        // The payload really is exactly sized for what it carries.
        EXPECT_EQ(deserialize_batch(shipped[b].payload).size(), shipped[b].records);
      }
      EXPECT_EQ(out.stats().records, oracle.stats.records);
      EXPECT_EQ(out.stats().bytes, oracle.stats.bytes);
      EXPECT_EQ(out.stats().batches, oracle.stats.batches);
      EXPECT_EQ(out.emitted(), emits);
      EXPECT_EQ(emit_histogram(real_metrics), emit_histogram(oracle_metrics));
      EXPECT_EQ(real_tracer.dropped_stamps(), oracle_tracer.dropped_stamps());
      EXPECT_EQ(real_recorder.collect(), oracle_recorder.collect());
    }
  }
}

TEST(OutputInterface, ShippedPayloadIsExactlySized) {
  std::vector<std::size_t> slack;
  OutputInterface out(
      [&](std::string_view, std::vector<std::byte> payload, const BatchInfo&) {
        slack.push_back(payload.capacity() - payload.size());
      },
      4);
  out.set_current_trace(7);  // traced: the trailer must fit exactly too
  for (int i = 0; i < 4; ++i) emit(out, make_record("a", i));
  out.set_current_trace(0);
  emit(out, make_record("a", 9));
  out.flush();
  EXPECT_EQ(slack, (std::vector<std::size_t>{0, 0}));
}

}  // namespace
}  // namespace netalytics::nf
