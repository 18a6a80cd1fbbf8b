// Differential proof of federation exactness (docs/FEDERATION.md): a
// 4-child federated run under link chaos — an outage window mid-stream,
// duplicated frames, and a child process restart — must produce, at the
// parent, the same result-record multiset as a single oracle engine fed
// the union of all four traffic slices; reconcile() must be exact at
// every pump boundary; and every parent render must be byte-identical
// across child executor worker counts (the determinism contract extended
// over the wire).
#include "fed/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "parent_oracle.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "stream/tuple.hpp"

namespace netalytics::fed {
namespace {

constexpr std::string_view kQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s PROCESS (identity)";

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

std::string fields_key(std::span<const stream::Value> values) {
  std::string out;
  for (const auto& v : values) {
    out += stream::format_value(v);
    out += '|';
  }
  return out;
}

constexpr std::size_t kChildren = 4;
constexpr int kSessionsPerChild = 5;

/// Child i's slice: distinct source ports per (child, session) so the
/// union replayed into the oracle engine keeps every flow distinct.
const char* url_of(std::size_t child, int session) {
  if (session % 2 == 0) return "/hot";  // shared key: fan-in must sum it
  static const char* kUrls[kChildren] = {"/c0", "/c1", "/c2", "/c3"};
  return kUrls[child];
}

void inject_slice(core::Emulation& emu, std::size_t child) {
  for (int j = 0; j < kSessionsPerChild; ++j) {
    http_session(emu, static_cast<int>(child) * 100 + j,
                 common::kSecond + j * 150 * common::kMillisecond,
                 url_of(child, j));
  }
}

core::EngineConfig child_engine(std::size_t workers) {
  core::EngineConfig cfg;
  cfg.processor_parallelism = 4;
  cfg.executor_workers = workers;
  return cfg;
}

/// Everything the parent exposes, captured for the differential.
struct ParentCapture {
  std::vector<std::string> record_rows;  // in application order
  std::string top_k;
  std::string metrics;
  std::string reconcile;
};

/// The chaos schedule: child 1's link dies for a window mid-stream, child
/// 2's link duplicates every other frame, child 3's streaming node is
/// restarted outright. Fresh FaultPlan per run — plans carry mutable fire
/// counters.
ParentCapture run_federated(std::size_t workers) {
  common::FaultPlan plan(7);
  common::FaultSpec down;
  down.window_start = 2 * common::kSecond;
  down.window_end = 3500 * common::kMillisecond;
  plan.arm("fed.link.1.down", down);
  common::FaultSpec dup;
  dup.every_nth = 1;  // duplicate every frame either direction on link 2
  plan.arm("fed.link.2.duplicate", dup);

  core::FederationConfig cfg;
  cfg.children = kChildren;
  cfg.child_engine = child_engine(workers);
  cfg.key_field = 3;
  cfg.top_k = 8;
  Federation fed(cfg, &plan);
  RecordLog log;
  ParentOracle::record(fed.parent(), log);
  EXPECT_TRUE(fed.submit(kQuery, 0).has_value());
  for (std::size_t i = 0; i < kChildren; ++i) {
    inject_slice(fed.emulation(i), i);
  }

  for (common::Timestamp t = common::kSecond; t <= 4 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    const auto report = fed.reconcile();
    EXPECT_TRUE(report.exact())
        << "workers=" << workers << " t=" << t << "\n" << report.render();
  }
  fed.restart_child(3, 4 * common::kSecond);
  for (common::Timestamp t = 5 * common::kSecond; t <= 6 * common::kSecond;
       t += common::kSecond) {
    fed.pump(t);
    const auto report = fed.reconcile();
    EXPECT_TRUE(report.exact())
        << "workers=" << workers << " t=" << t << "\n" << report.render();
  }
  fed.settle(7 * common::kSecond);
  const auto report = fed.reconcile();
  EXPECT_TRUE(report.exact()) << report.render();

  // The chaos actually happened: child 1 re-handshook after the outage,
  // child 2 absorbed duplicated frames, child 3 re-streamed from zero.
  EXPECT_GE(fed.child(1).stats().reconnects, 2u);
  EXPECT_GT(fed.link(2).stats().duplicated_frames, 0u);
  EXPECT_GT(fed.parent().child_stats(2).duplicate_records, 0u);
  EXPECT_GE(fed.parent().child_stats(3).handshakes, 2u);
  EXPECT_EQ(fed.child(3).stats().records_streamed,
            fed.query(3)->results().size());  // restart re-framed everything

  // Fleet metrics mirror each child registry despite reconnect resyncs,
  // duplicate frames, and the restart (absolute values + max-merge).
  const auto fleet = fed.parent().metrics().snapshot();
  for (std::size_t i = 0; i < kChildren; ++i) {
    const auto child = fed.engine(i).metrics().snapshot();
    const std::string prefix = "fleet.child" + std::to_string(i) + ".";
    for (const auto& c : child.counters) {
      EXPECT_EQ(fleet.counter_value(prefix + c.name), c.value)
          << prefix << c.name;
    }
  }

  // Each child's fan-in tally is exactly its own results' key column:
  // replays, duplicates and the restart were each counted once.
  for (std::size_t i = 0; i < kChildren; ++i) {
    stream::FanInTopK::Counts tally;
    for (const auto& t : fed.query(i)->results()) {
      tally[stream::format_value(t.at(cfg.key_field))] += 1;
    }
    EXPECT_EQ(fed.parent().top_k().local(i), tally) << "child " << i;
  }

  ParentCapture cap;
  for (const auto& row : log.all()) cap.record_rows.push_back(fields_key(row));
  cap.top_k = fed.render_top_k();
  cap.metrics = fed.export_metrics();
  cap.reconcile = report.render();
  return cap;
}

/// The oracle: one engine fed the union of all four slices, no
/// federation, no chaos. Identity results are per-flow, so the union of
/// disjoint slices yields exactly the concatenated per-slice results.
std::vector<std::string> run_oracle() {
  core::Emulation emu = core::Emulation::make_small(4);
  core::NetAlytics engine(emu, child_engine(1));
  auto q = engine.submit(kQuery, 0);
  EXPECT_TRUE(q.has_value());
  for (std::size_t i = 0; i < kChildren; ++i) inject_slice(emu, i);
  for (common::Timestamp t = common::kSecond; t <= 8 * common::kSecond;
       t += common::kSecond) {
    engine.pump(t);
  }
  EXPECT_TRUE(engine.reconcile(**q).exact());
  std::vector<std::string> rows;
  for (const auto& t : (*q)->results()) rows.push_back(fields_key(t.values));
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(FederationChaos, ParentMatchesSingleEngineOracleUnderLinkChaos) {
  ParentCapture fed = run_federated(1);
  ASSERT_FALSE(fed.record_rows.empty());
  std::vector<std::string> rows = fed.record_rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, run_oracle());
}

TEST(FederationChaos, ParentRendersAreByteIdenticalAcrossWorkerCounts) {
  const ParentCapture serial = run_federated(1);
  const ParentCapture parallel = run_federated(4);
  ASSERT_FALSE(serial.record_rows.empty());
  // Same records in the same application order, same global top-k, same
  // fleet exposition, same reconcile report — byte for byte.
  EXPECT_EQ(serial.record_rows, parallel.record_rows);
  EXPECT_EQ(serial.top_k, parallel.top_k);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.reconcile, parallel.reconcile);
}

}  // namespace
}  // namespace netalytics::fed
