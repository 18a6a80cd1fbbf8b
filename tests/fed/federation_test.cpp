// Federation integration (docs/FEDERATION.md): child engines monitoring
// disjoint traffic slices stream records and metric snapshots to the
// parent, whose global views — record multiset, fan-in top-k, fleet
// metrics, historical store — must account for the whole fleet exactly.
#include "fed/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "common/byte_io.hpp"
#include "parent_oracle.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "stream/tuple.hpp"

namespace netalytics::fed {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

/// One HTTP GET session h0 -> h5 through `emu`, distinguished by port/url.
void http_session(core::Emulation& emu, int port, common::Timestamp start,
                  const char* url) {
  pktgen::SessionSpec s;
  s.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"),
            static_cast<net::Port>(30000 + port), 80, 6};
  s.start = start;
  s.rtt = common::kMillisecond;
  s.server_latency = common::kMillisecond;
  const auto req = pktgen::http_get_request(url, "h5");
  const auto resp = pktgen::http_response(200, 100);
  s.request = req;
  s.response = resp;
  pktgen::emit_tcp_session(
      s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
        emu.transmit(f, ts);
      });
}

/// Canonical string of one record's fields (transport-independent view:
/// topic/id/timestamp are streaming artifacts and excluded on purpose).
std::string fields_key(std::span<const stream::Value> values) {
  std::string out;
  for (const auto& v : values) {
    out += stream::format_value(v);
    out += '|';
  }
  return out;
}

std::string fields_key(const stream::Tuple& t) { return fields_key(t.values); }

/// Sorted multiset view of a record/tuple collection's field rows.
template <typename Range>
std::vector<std::string> field_multiset(const Range& rows) {
  std::vector<std::string> keys;
  for (const auto& row : rows) keys.push_back(fields_key(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

core::FederationConfig small_config(std::size_t children) {
  core::FederationConfig cfg;
  cfg.children = children;
  cfg.key_field = 3;  // http_get schema {"id","ts","kind","value"}
  cfg.top_k = 5;
  return cfg;
}

TEST(Federation, StreamsEveryChildResultToTheParentExactly) {
  Federation fed(small_config(2));
  RecordLog log;
  ParentOracle::record(fed.parent(), log);
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());

  // Disjoint slices: child 0 serves /a twice and /hot once; child 1
  // serves /b once and /hot twice.
  http_session(fed.emulation(0), 0, common::kSecond, "/a");
  http_session(fed.emulation(0), 1, 1100 * common::kMillisecond, "/a");
  http_session(fed.emulation(0), 2, 1200 * common::kMillisecond, "/hot");
  http_session(fed.emulation(1), 0, common::kSecond, "/b");
  http_session(fed.emulation(1), 1, 1100 * common::kMillisecond, "/hot");
  http_session(fed.emulation(1), 2, 1300 * common::kMillisecond, "/hot");

  for (common::Timestamp t = common::kSecond; t <= 4 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    const auto report = fed.reconcile();
    EXPECT_TRUE(report.exact()) << "t=" << t << "\n" << report.render();
  }
  fed.settle(5 * common::kSecond);

  // Every child result reached the parent exactly once.
  const auto report = fed.reconcile();
  ASSERT_TRUE(report.exact()) << report.render();
  std::vector<std::string> expected;
  std::uint64_t results = 0;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    ASSERT_FALSE(fed.query(i)->results().empty()) << "child " << i;
    results += fed.query(i)->results().size();
    for (const auto& key : field_multiset(fed.query(i)->results())) {
      expected.push_back(key);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fed.parent().total_records_applied(), results);
  EXPECT_EQ(field_multiset(log.all()), expected);

  // The global top-k equals a direct tally of the union, summed across
  // children (FanInTopK semantics).
  std::map<std::string, std::uint64_t> tally;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    for (const auto& t : fed.query(i)->results()) {
      tally[stream::format_value(t.at(3))] += 1;
    }
  }
  const stream::Rankings global = fed.parent().top_k().global();
  for (const auto& entry : global.entries()) {
    EXPECT_EQ(entry.count, tally.at(entry.key)) << entry.key;
  }
  EXPECT_EQ(fed.render_top_k(), fed.render_top_k());  // deterministic
  EXPECT_NE(fed.render_top_k().find("/hot"), std::string::npos);
}

TEST(Federation, FleetMetricsMirrorEveryChildRegistry) {
  Federation fed(small_config(2));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  http_session(fed.emulation(0), 0, common::kSecond, "/m0");
  http_session(fed.emulation(1), 0, common::kSecond, "/m1");
  fed.settle(2 * common::kSecond);

  // METRICS frames carry absolute values for changed series; after settle
  // the parent's fleet.child<i>.* mirror equals each child registry for
  // every counter and gauge (histograms stay child-local in protocol v1).
  const auto fleet = fed.parent().metrics().snapshot();
  for (std::size_t i = 0; i < fed.children(); ++i) {
    const auto child = fed.engine(i).metrics().snapshot();
    const std::string prefix = "fleet.child" + std::to_string(i) + ".";
    ASSERT_FALSE(child.counters.empty());
    for (const auto& c : child.counters) {
      EXPECT_EQ(fleet.counter_value(prefix + c.name), c.value)
          << prefix << c.name;
    }
    for (const auto& g : child.gauges) {
      EXPECT_EQ(fleet.gauge_value(prefix + g.name), g.value)
          << prefix << g.name;
    }
  }

  // The Prometheus exposition lifts child<i> into a child label.
  const std::string prom = fed.export_metrics();
  EXPECT_NE(prom.find("child=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("child=\"1\""), std::string::npos);
  EXPECT_EQ(prom, fed.export_metrics());

  // The fleet store answers range queries over child history.
  tsdb::RangeQuery q;
  q.selector = "fleet.child0.engine.pumps";
  const auto range = fed.query_range(q);
  ASSERT_EQ(range.series.size(), 1u);
  ASSERT_FALSE(range.series[0].points.empty());
  EXPECT_GT(range.series[0].points[0].value, 0.0);
}

TEST(Federation, ReplayOverflowUnderOutageIsCountedNotHidden) {
  core::FederationConfig cfg = small_config(1);
  cfg.replay_capacity = 2;    // frames
  cfg.records_per_frame = 1;  // one record per frame
  common::FaultPlan plan(3);
  common::FaultSpec down;
  down.window_start = 0;
  down.window_end = 7 * common::kSecond;
  plan.arm("fed.link.0.down", down);
  Federation fed(cfg, &plan);
  RecordLog log;
  ParentOracle::record(fed.parent(), log);
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());

  for (int i = 0; i < 6; ++i) {
    http_session(fed.emulation(0), i,
                 common::kSecond + i * 200 * common::kMillisecond, "/ovf");
  }
  for (common::Timestamp t = common::kSecond; t <= 6 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    EXPECT_FALSE(fed.child(0).streaming()) << "outage window still open";
  }
  fed.settle(7 * common::kSecond);

  const auto report = fed.reconcile();
  ASSERT_EQ(report.children.size(), 1u);
  const ChildReconcile& c = report.children[0];
  ASSERT_GT(c.results, 2u) << "need more results than the replay buffer";
  // The buffer shed the oldest frames; after recovery the parent observed
  // the shed range as an offset gap. Under a pure outage (nothing was
  // applied before the shedding) the conservative child-side overflow
  // count is exact: lost == overflow, and the accounting still closes.
  EXPECT_GT(c.overflow, 0u);
  EXPECT_EQ(c.lost, c.overflow);
  EXPECT_EQ(c.residual(), 0);
  EXPECT_FALSE(c.exact());
  EXPECT_EQ(log.child(0).size(), c.streamed - c.lost);
  // What did survive is the newest suffix of the result stream.
  std::vector<std::string> tail;
  const auto& results = fed.query(0)->results();
  for (std::size_t i = results.size() - (c.streamed - c.lost);
       i < results.size(); ++i) {
    tail.push_back(fields_key(results[i]));
  }
  std::sort(tail.begin(), tail.end());
  EXPECT_EQ(field_multiset(log.child(0)), tail);
}

TEST(Federation, ChildRestartIsExactlyIdempotent) {
  Federation fed(small_config(2));
  RecordLog log;
  ParentOracle::record(fed.parent(), log);
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  http_session(fed.emulation(0), 0, common::kSecond, "/pre");
  http_session(fed.emulation(1), 0, common::kSecond, "/pre");
  fed.pump(common::kSecond);
  fed.pump(2 * common::kSecond);
  ASSERT_TRUE(fed.reconcile().exact());

  // Child 1's streaming node dies and comes back with no state: it
  // re-frames its engine's result stream from offset 0, and the parent's
  // watermark discards everything already applied.
  fed.restart_child(1, 2 * common::kSecond);
  http_session(fed.emulation(1), 1, 2500 * common::kMillisecond, "/post");
  fed.settle(3 * common::kSecond);

  const auto report = fed.reconcile();
  EXPECT_TRUE(report.exact()) << report.render();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < fed.children(); ++i) {
    for (const auto& key : field_multiset(fed.query(i)->results())) {
      expected.push_back(key);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(field_multiset(log.all()), expected);
  EXPECT_GE(fed.child(1).stats().reconnects, 1u);
}

/// One Federation::pump round with `inject` run between the children's
/// sends and the parent's pump, so injected bytes share a drain with the
/// children's own frames.
template <typename Inject>
void pump_injecting(Federation& fed, common::Timestamp t, Inject inject) {
  for (std::size_t i = 0; i < fed.children(); ++i) fed.engine(i).pump(t);
  for (std::size_t i = 0; i < fed.children(); ++i) fed.child(i).pump(t);
  inject();
  fed.parent().pump(t);
  for (std::size_t i = 0; i < fed.children(); ++i) fed.child(i).flush(t);
}

/// A RECORDS frame at `offset` whose batch is cut after its first record:
/// decode_records accepts it, read_batch throws after the visitor has
/// seen a record.
std::vector<std::byte> truncated_records(std::uint64_t offset) {
  RecordsEncoder enc;
  enc.begin(offset, 0);
  for (int i = 0; i < 3; ++i) {
    const std::vector<nf::FieldValue> row = {
        nf::FieldValue{std::uint64_t{1}}, nf::FieldValue{std::uint64_t{2}},
        nf::FieldValue{std::string{"request"}},
        nf::FieldValue{std::string{"/evil"}}};
    enc.add(row, 0);
  }
  std::vector<std::byte> frame = enc.finish();
  constexpr std::size_t kCut = 20;  // inside the third record
  frame.resize(frame.size() - kCut);
  // Re-patch the frame length and the batch length to the cut size.
  const std::uint32_t frame_len = static_cast<std::uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &frame_len, 4);
  const std::uint32_t batch_len =
      static_cast<std::uint32_t>(frame.size() - (4 + 1 + 8 + 8 + 4));
  std::memcpy(frame.data() + 4 + 1 + 8 + 8, &batch_len, 4);
  return frame;
}

/// [u32 len][u8 type][payload]
std::vector<std::byte> raw_frame(MsgType type,
                                 const std::vector<std::byte>& payload) {
  common::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  for (const std::byte b : payload) w.u8(static_cast<std::uint8_t>(b));
  return w.take();
}

struct CorruptionRun {
  std::vector<std::string> rows;
  std::string top_k;
  std::string reconcile;
  std::uint64_t corrupt[2] = {0, 0};
  std::uint64_t fleet_counter[2] = {0, 0};
  std::string exposition;
};

/// Sessions on both children from 1 s to 4.5 s; with `corrupt`, garbage
/// lands mid-stream on both links at 2, 3, 4 and 5 s.
CorruptionRun run_with_corruption(bool corrupt) {
  Federation fed(small_config(2));
  RecordLog log;
  ParentOracle::record(fed.parent(), log);
  EXPECT_TRUE(fed.submit(kQuery, 0).has_value());
  for (std::size_t c = 0; c < 2; ++c) {
    for (int j = 0; j < 8; ++j) {
      http_session(fed.emulation(c), j,
                   common::kSecond + j * 500 * common::kMillisecond,
                   j % 3 == 0 ? "/hot" : (c == 0 ? "/a" : "/b"));
    }
  }
  const auto inject = [&fed](std::size_t child, std::vector<std::byte> bytes,
                             common::Timestamp t) {
    EXPECT_TRUE(fed.link(child).send_up(bytes, t)) << "child " << child;
  };
  for (common::Timestamp t = common::kSecond; t <= 6 * common::kSecond;
       t += common::kSecond) {
    EXPECT_NO_THROW(pump_injecting(fed, t, [&] {
      if (!corrupt) return;
      // Forged records at the head of each child's stream: applied, they
      // would claim offsets the child's real results own.
      const std::uint64_t head0 = fed.child(0).next_offset();
      const std::uint64_t head1 = fed.child(1).next_offset();
      switch (t / common::kSecond) {
        case 2:  // a length prefix beyond kMaxFramePayload
          inject(0, std::vector<std::byte>(16, std::byte{0xff}), t);
          inject(1, raw_frame(MsgType::metrics, {std::byte{1}}), t);
          break;
        case 3:  // records that decode halfway
          inject(0, truncated_records(head0), t);
          inject(1, raw_frame(static_cast<MsgType>(99), {}), t);
          break;
        case 4:
          inject(0, raw_frame(MsgType::hello, {std::byte{0x4e}}), t);
          inject(1, raw_frame(MsgType::records, std::vector<std::byte>(7)), t);
          break;
        case 5:
          inject(0, raw_frame(MsgType::bye, {}), t);
          inject(1, truncated_records(head1), t);
          break;
        default:
          break;
      }
    }));
    const auto report = fed.reconcile();
    EXPECT_TRUE(report.exact()) << "t=" << t << "\n" << report.render();
  }
  fed.settle(7 * common::kSecond);
  const auto report = fed.reconcile();
  EXPECT_TRUE(report.exact()) << report.render();

  CorruptionRun run;
  for (const auto& row : log.all()) run.rows.push_back(fields_key(row));
  std::sort(run.rows.begin(), run.rows.end());
  run.top_k = fed.render_top_k();
  run.reconcile = report.render();
  run.exposition = fed.export_metrics();
  const auto fleet = fed.parent().metrics().snapshot();
  for (std::size_t c = 0; c < 2; ++c) {
    run.corrupt[c] = fed.parent().child_stats(c).corrupt_frames;
    run.fleet_counter[c] = fleet.counter_value(
        "fleet.child" + std::to_string(c) + ".fed.corrupt_frames");
  }
  return run;
}

TEST(Federation, CorruptFramesQuarantineTheChildAndApplyNothing) {
  const CorruptionRun clean = run_with_corruption(false);
  const CorruptionRun dirty = run_with_corruption(true);
  ASSERT_FALSE(clean.rows.empty());
  // Every injection quarantined its child once; the clean fleet carries no
  // corrupt-frame series at all.
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(clean.corrupt[c], 0u);
    EXPECT_EQ(dirty.corrupt[c], 4u) << "child " << c;
    EXPECT_EQ(dirty.fleet_counter[c], 4u) << "child " << c;
  }
  EXPECT_EQ(clean.fleet_counter[0] + clean.fleet_counter[1], 0u);
  EXPECT_EQ(clean.exposition.find("corrupt_frames"), std::string::npos);
  EXPECT_NE(dirty.exposition.find(
                "netalytics_fleet_fed_corrupt_frames{child=\"1\"} 4"),
            std::string::npos);
  // Reconnect plus gap replication recovered everything, and nothing of a
  // corrupt frame was applied: same rows, same fan-in, same books.
  EXPECT_EQ(dirty.rows, clean.rows);
  EXPECT_EQ(dirty.top_k, clean.top_k);
  EXPECT_EQ(dirty.top_k.find("/evil"), std::string::npos);
  EXPECT_EQ(dirty.reconcile, clean.reconcile);
}

TEST(Federation, RejectsBadConfigAndDoubleSubmit) {
  core::FederationConfig zero;
  zero.children = 0;
  EXPECT_THROW(Federation{zero}, std::invalid_argument);

  Federation fed(small_config(1));
  ASSERT_TRUE(fed.submit(kQuery, 0).has_value());
  const auto again = fed.submit(kQuery, 0);
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error().code, "fed");
}

}  // namespace
}  // namespace netalytics::fed
