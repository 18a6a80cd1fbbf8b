// Differential proof of monitor pushdown: a top-k or group-* query whose
// filter and per-tick combiner run inside the monitors must give exactly
// the results of its unpushed plan — the oracle, where monitors ship one
// record per packet and the topology filters and folds them. Random
// traffic from several clients to two servers (so several monitors), a
// processor x parser matrix, parallelism > 1, both executors, traced
// packets. Compared at every pump boundary: the result rows delivered
// since the previous pump, with their trace ids, and the drop ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/netalytics.hpp"
#include "pktgen/payloads.hpp"
#include "pktgen/session.hpp"
#include "pushdown_oracle.hpp"
#include "stream/tuple.hpp"

namespace netalytics::core {
namespace {

enum class App { http, memcached, mysql };

struct Case {
  const char* name;
  App app;
  const char* query;
};

const Case kCases[] = {
    {"topk_http", App::http,
     "PARSE http_get FROM * TO h5:80, h13:80 LIMIT 600s "
     "PROCESS (top-k: k=4, w=2s)"},
    {"topk_memcached", App::memcached,
     "PARSE memcached_get FROM * TO h5:11211, h13:11211 LIMIT 600s "
     "PROCESS (top-k: k=3, w=3s)"},
    {"topk_mysql", App::mysql,
     "PARSE mysql_query FROM * TO h5:3306, h13:3306 LIMIT 600s "
     "PROCESS (top-k: k=5)"},
    {"topk_flow_key_port", App::http,
     "PARSE tcp_flow_key FROM * TO h5:80, h13:80 LIMIT 600s "
     "PROCESS (top-k: k=3, field=src_port, w=2s)"},
    {"group_sum_pkt_size", App::http,
     "PARSE tcp_pkt_size FROM * TO h5:80, h13:80 LIMIT 600s "
     "PROCESS (group-sum: group=pair, value=bytes)"},
    {"group_avg_pkt_size", App::http,
     "PARSE tcp_pkt_size FROM * TO h5:80, h13:80 LIMIT 600s "
     "PROCESS (group-avg: group=dst_ip, value=packets)"},
    {"group_max_mysql", App::mysql,
     "PARSE mysql_query FROM * TO h5:3306, h13:3306 LIMIT 600s "
     "PROCESS (group-max)"},
    {"group_min_mysql", App::mysql,
     "PARSE mysql_query FROM * TO h5:3306, h13:3306 LIMIT 600s "
     "PROCESS (group-min)"},
    {"group_avg_mysql", App::mysql,
     "PARSE mysql_query FROM * TO h5:3306, h13:3306 LIMIT 600s "
     "PROCESS (group-avg)"},
    {"group_max_mysql_header_fields", App::mysql,
     "PARSE mysql_query FROM * TO h5:3306, h13:3306 LIMIT 600s "
     "PROCESS (group-max: group=statement, value=ts)"},
    {"topk_memcached_by_id", App::memcached,
     "PARSE memcached_get FROM * TO h5:11211, h13:11211 LIMIT 600s "
     "PROCESS (top-k: k=3, field=id)"},
    {"group_count_http_mixed_keys", App::http,
     "PARSE http_get FROM * TO h5:80, h13:80 LIMIT 600s "
     "PROCESS (group-count: group=value)"},
    {"two_processors_memcached", App::memcached,
     "PARSE (memcached_get, tcp_pkt_size) FROM * TO h5:11211, h13:11211 "
     "LIMIT 600s PROCESS (top-k: k=2), (group-count: group=key)"},
};

struct Mode {
  stream::ExecutorMode executor;
  std::size_t parallelism;
  std::size_t workers;
};

const Mode kModes[] = {
    {stream::ExecutorMode::stepped, 1, 1},
    {stream::ExecutorMode::stepped, 3, 2},
    {stream::ExecutorMode::free_running, 3, 2},
};

/// One session's request and response payloads for `app`, keyed by `key`.
std::pair<std::vector<std::byte>, std::vector<std::byte>> payloads(
    App app, std::size_t key, std::size_t size) {
  const std::string name = "/k" + std::to_string(key);
  switch (app) {
    case App::http:
      return {pktgen::http_get_request(name, "h5"),
              pktgen::http_response(key % 3 == 0 ? 404 : 200, 40 + size)};
    case App::memcached:
      return {pktgen::memcached_get_request("key" + std::to_string(key)),
              pktgen::memcached_value_response("key" + std::to_string(key),
                                               8 + size)};
    case App::mysql:
      return {pktgen::mysql_query_packet("SELECT * FROM t WHERE k = " +
                                         std::to_string(key)),
              pktgen::mysql_resultset_packet(16 + size)};
  }
  return {};
}

net::Port server_port(App app) {
  switch (app) {
    case App::http: return 80;
    case App::memcached: return 11211;
    case App::mysql: return 3306;
  }
  return 0;
}

struct Outcome {
  std::vector<std::vector<stream::Tuple>> per_pump;  // rows delivered per pump
  std::string ledger;
  std::size_t monitors = 0;
  nf::MonitorStats stats;
};

Outcome run_query(const Case& c, const Mode& mode, bool pushed, std::uint64_t seed) {
  Emulation emu = Emulation::make_small(4);
  EngineConfig cfg;
  cfg.processor_parallelism = mode.parallelism;
  cfg.executor_workers = mode.workers;
  cfg.executor_mode = mode.executor;
  cfg.trace_sample_denominator = 3;
  NetAlytics engine(emu, cfg);
  if (!pushed) PushdownOracle::disable(engine);
  auto q = engine.submit(c.query, 0);
  EXPECT_TRUE(q.has_value()) << q.error().to_string();
  Outcome out;
  if (!q) return out;
  QueryHandle& h = **q;
  out.monitors = h.plan().monitors.size();

  const char* clients[] = {"h0", "h1", "h8", "h9", "h16", "h17"};
  const char* servers[] = {"h5", "h13"};
  common::Rng rng(seed);
  int port = 20000;
  std::size_t seen = 0;
  const auto boundary = [&](common::Timestamp t) {
    engine.pump(t);
    const auto& rows = h.results();
    out.per_pump.emplace_back(rows.begin() + static_cast<long>(seen), rows.end());
    seen = rows.size();
  };
  for (int tick = 1; tick <= 6; ++tick) {
    for (int half = 0; half < 2; ++half) {
      const common::Timestamp base =
          tick * common::kSecond + half * 500 * common::kMillisecond;
      const std::size_t sessions = 5 + rng.uniform(0, 30);
      for (std::size_t i = 0; i < sessions; ++i) {
        // Skewed keys: a few hot ones and a long tail.
        const std::size_t key =
            rng.uniform(0, 3) == 0 ? rng.uniform(0, 40) : rng.uniform(0, 4);
        const auto [req, resp] = payloads(c.app, key, rng.uniform(0, 300));
        pktgen::SessionSpec s;
        s.flow = {*emu.ip_of_name(clients[rng.uniform(0, 5)]),
                  *emu.ip_of_name(servers[rng.uniform(0, 1)]),
                  static_cast<net::Port>(port++), server_port(c.app), 6};
        s.start = base + i * 10 * common::kMillisecond;
        s.rtt = common::kMillisecond;
        s.server_latency = (1 + rng.uniform(0, 20)) * common::kMillisecond;
        s.request = req;
        s.response = resp;
        pktgen::emit_tcp_session(
            s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
              emu.transmit(f, ts);
            });
      }
      boundary(base + 500 * common::kMillisecond);
    }
  }
  engine.stop_query(h, 7 * common::kSecond + common::kMillisecond);
  out.per_pump.emplace_back(h.results().begin() + static_cast<long>(seen),
                            h.results().end());
  out.ledger = h.drop_ledger().render();
  out.stats = h.monitor_stats();
  return out;
}

/// Rows with their trace ids, in delivery order or (relaxed mode) sorted.
std::vector<std::string> renders(const std::vector<stream::Tuple>& rows,
                                 bool sorted) {
  std::vector<std::string> out;
  for (const auto& t : rows) {
    out.push_back(stream::format_tuple(t) + " trace=" + std::to_string(t.trace));
  }
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

std::string case_name(const std::tuple<std::size_t, std::size_t>& param) {
  const char* const mode_names[] = {"stepped1", "stepped3", "free3"};
  return std::string(kCases[std::get<0>(param)].name) + "_" +
         mode_names[std::get<1>(param)];
}

class PushdownDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PushdownDifferential, PushedPlanMatchesUnpushedOracle) {
  const Case& c = kCases[std::get<0>(GetParam())];
  const Mode& mode = kModes[std::get<1>(GetParam())];
  const bool relaxed = mode.executor == stream::ExecutorMode::free_running;
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(std::string(c.name) + " seed=" + std::to_string(seed));
    const Outcome pushed = run_query(c, mode, true, seed);
    const Outcome oracle = run_query(c, mode, false, seed);
    EXPECT_GE(pushed.monitors, 2u);
    // The pushed plan folded; the oracle shipped every record.
    EXPECT_GT(pushed.stats.folded, 0u);
    EXPECT_EQ(oracle.stats.folded + oracle.stats.filtered, 0u);
    EXPECT_EQ(pushed.stats.parsed, oracle.stats.parsed);

    ASSERT_EQ(pushed.per_pump.size(), oracle.per_pump.size());
    std::size_t rows = 0;
    std::size_t traced = 0;
    for (std::size_t b = 0; b < pushed.per_pump.size(); ++b) {
      SCOPED_TRACE("pump boundary " + std::to_string(b));
      EXPECT_EQ(renders(pushed.per_pump[b], relaxed),
                renders(oracle.per_pump[b], relaxed));
      rows += pushed.per_pump[b].size();
      for (const auto& t : pushed.per_pump[b]) traced += t.trace != 0;
    }
    EXPECT_GT(rows, 0u);
    EXPECT_GT(traced, 0u);  // the trace ids were compared, not all zero
    EXPECT_EQ(pushed.ledger, oracle.ledger);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PushdownDifferential,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kCases)),
                       ::testing::Range<std::size_t>(0, std::size(kModes))),
    [](const auto& info) { return case_name(info.param); });

/// HTTP sessions from `client` to h5:80 with URLs from a small skewed set.
void http_traffic(Emulation& emu, const char* client, int sessions,
                  common::Timestamp start, common::Rng& rng, int& port) {
  for (int i = 0; i < sessions; ++i) {
    const auto [req, resp] = payloads(App::http, rng.uniform(0, 6), 100);
    pktgen::SessionSpec s;
    s.flow = {*emu.ip_of_name(client), *emu.ip_of_name("h5"),
              static_cast<net::Port>(port++), 80, 6};
    s.start = start + i * 5 * common::kMillisecond;
    s.request = req;
    s.response = resp;
    pktgen::emit_tcp_session(
        s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
          emu.transmit(f, ts);
        });
  }
}

TEST(PushdownTenants, TopKAndIdentityShareAParser) {
  // Two tenants parse http_get on the same ToR: a pushed top-k over h0's
  // traffic and an identity over h1's. The top-k ships partials to its own
  // topic, so identity reads only raw records — its own — and the top-k's
  // ranking is what it gives alone.
  constexpr std::string_view kTopK =
      "PARSE http_get FROM h0 TO h5:80 LIMIT 600s PROCESS (top-k: k=4)";
  constexpr std::string_view kIdentity =
      "PARSE http_get FROM h1 TO h5:80 LIMIT 600s PROCESS (identity)";
  const auto drive = [](NetAlytics& engine) {
    common::Rng rng(9);
    int port = 20000;
    for (int tick = 1; tick <= 3; ++tick) {
      const common::Timestamp t = tick * common::kSecond;
      http_traffic(engine.emulation(), "h0", 30, t, rng, port);
      http_traffic(engine.emulation(), "h1", 10 * tick, t, rng, port);
      engine.pump(t + 500 * common::kMillisecond);
      engine.pump(t + common::kSecond);
    }
  };

  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu);
  auto topk = engine.submit(kTopK, 0);
  auto identity = engine.submit(kIdentity, 0);
  ASSERT_TRUE(topk.has_value() && identity.has_value());
  drive(engine);
  const auto report = engine.reconcile(**identity);
  EXPECT_TRUE(report.exact()) << report.render();
  // Only the folding tenant's monitors register the pushdown counters.
  const auto pushdown_series = [&engine](const QueryHandle& q) {
    std::string prefix = "q";
    prefix += std::to_string(q.id());
    prefix += ".mon";
    std::size_t n = 0;
    for (const auto& c : engine.metrics().snapshot(prefix).counters) {
      n += c.name.ends_with(".folded") || c.name.ends_with(".filtered");
    }
    return n;
  };
  EXPECT_GT(pushdown_series(**topk), 0u);
  EXPECT_EQ(pushdown_series(**identity), 0u);
  engine.stop_all(5 * common::kSecond);

  Emulation alone_emu = Emulation::make_small(4);
  NetAlytics alone(alone_emu);
  auto topk_alone = alone.submit(kTopK, 0);
  ASSERT_TRUE(topk_alone.has_value());
  drive(alone);
  alone.stop_all(5 * common::kSecond);

  EXPECT_EQ(renders((*topk)->results(), false),
            renders((*topk_alone)->results(), false));
  ASSERT_FALSE((*topk)->results().empty());

  // h1 sent 10 + 20 + 30 sessions, one request and one response record
  // each; every identity row is a raw http_get record.
  const auto& rows = (*identity)->results();
  EXPECT_EQ(rows.size(), 2u * (10 + 20 + 30));
  for (const auto& t : rows) {
    ASSERT_EQ(t.size(), 4u) << stream::format_tuple(t);
    const auto& kind = stream::as_str(t.at(2));
    EXPECT_TRUE(kind == "request" || kind == "response") << kind;
  }
}

/// Monitor counter `leaf` of monitor `prefix` ("q1.mon0").
std::uint64_t counter(const NetAlytics& engine, const std::string& prefix,
                      std::string_view leaf) {
  const auto snap = engine.metrics().snapshot(prefix + ".");
  for (const auto& c : snap.counters) {
    if (c.name == prefix + "." + std::string(leaf)) return c.value;
  }
  return 0;
}

TEST(PushdownConservation, EveryParserRecordIsShippedFoldedOrFiltered) {
  // At every pump boundary, per monitor: each record the parser emitted is
  // folded into a partial or dropped by the pushed filter, and — when an
  // unpushed processor needs them — shipped raw as well. Partials are
  // minted at ticks (tick_records), and the reconcile folded term is the
  // monitors' folded + filtered.
  EngineConfig cfg;
  cfg.monitor_output_batch = 1;  // raw records ship at emit
  Emulation emu = Emulation::make_small(4);
  NetAlytics engine(emu, cfg);
  auto pushed = engine.submit(
      "PARSE http_get FROM * TO h5:80, h13:80 LIMIT 600s PROCESS (top-k: k=3)",
      0);
  auto mixed = engine.submit(
      "PARSE http_get FROM * TO h6:80, h14:80 LIMIT 600s "
      "PROCESS (top-k: k=3), (identity)",
      0);
  ASSERT_TRUE(pushed.has_value() && mixed.has_value());
  ASSERT_GE((*pushed)->plan().monitors.size(), 2u);

  const char* clients[] = {"h0", "h8", "h16"};
  const char* servers[] = {"h5", "h13", "h6", "h14"};
  common::Rng rng(5);
  int port = 20000;
  std::uint64_t checked_folds = 0;
  for (int step = 1; step <= 12; ++step) {
    const common::Timestamp t = step * 400 * common::kMillisecond;
    for (int i = 0; i < 12; ++i) {
      const auto [req, resp] = payloads(App::http, rng.uniform(0, 9), 50);
      pktgen::SessionSpec s;
      s.flow = {*emu.ip_of_name(clients[rng.uniform(0, 2)]),
                *emu.ip_of_name(servers[rng.uniform(0, 3)]),
                static_cast<net::Port>(port++), 80, 6};
      s.start = t + i * 10 * common::kMillisecond;
      s.request = req;
      s.response = resp;
      pktgen::emit_tcp_session(
          s, [&emu](std::span<const std::byte> f, common::Timestamp ts) {
            emu.transmit(f, ts);
          });
    }
    engine.pump(t + 300 * common::kMillisecond);
    for (QueryHandle* q : {*pushed, *mixed}) {
      const bool raw = q == *mixed;
      std::uint64_t folded_total = 0;
      for (std::size_t j = 0; j < q->plan().monitors.size(); ++j) {
        std::string mon = "q";
        mon += std::to_string(q->id());
        mon += ".mon";
        mon += std::to_string(j);
        SCOPED_TRACE(mon + " step " + std::to_string(step));
        const auto emitted = counter(engine, mon, "parse_with_output") +
                             counter(engine, mon, "extra_records");
        const auto folded = counter(engine, mon, "folded");
        const auto filtered = counter(engine, mon, "filtered");
        const auto partials = counter(engine, mon, "tick_records");
        EXPECT_EQ(folded + filtered, emitted);
        EXPECT_EQ(counter(engine, mon, "records"),
                  (raw ? emitted : 0) + partials);
        folded_total += folded + filtered;
        checked_folds += folded;
      }
      EXPECT_EQ(engine.reconcile(*q).folded, folded_total);
    }
  }
  EXPECT_GT(checked_folds, 0u);
  engine.stop_all(6 * common::kSecond);
}

}  // namespace
}  // namespace netalytics::core
