// The benchmark's workloads: seeded traffic, the reference each check
// compares against, and the live system of one episode.
//
//   http_topk  §7.3 headline query, one engine: ingest (decode, http_get
//              parse, produce) and pump (poll, count/rank bolts, capture)
//              split the busy time about evenly; 3 mirror rules per ToR.
//   fleet_sql  §7.2 plus federation: identity over mysql_query on two
//              child engines and a parent fan-in top-k. Every response
//              becomes a result that crosses mq, stream, the sink and the
//              fed wire, and identity makes reconcile() exact.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <string_view>

#include "common/trace.hpp"
#include "fed/federation.hpp"
#include "netbench.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/payloads.hpp"

namespace netbench {

namespace {

constexpr common::Duration kTick = common::kSecond;
constexpr common::Duration kScrapeWindow = 60 * common::kSecond;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kNotesKept = 8;

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the library's RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::uint64_t tick_seed(std::uint64_t seed, std::size_t tick) {
  return Rng(seed ^ (0x5bd1e995ULL * (tick + 1))).next();
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Hosts of Emulation::make_small(4) by name, resolved once.
struct Hosts {
  net::Ipv4Addr server = 0;
  std::vector<net::Ipv4Addr> clients;  // 16 hosts outside the server's rack

  Hosts() {
    const auto emu = core::Emulation::make_small(4);
    server = *emu.ip_of_name("h5");
    for (int h : {0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}) {
      std::string name = "h";
      name += std::to_string(h);
      clients.push_back(*emu.ip_of_name(name));
    }
  }
};

/// Top-k of a key -> count table in the engine's order (count desc, key asc).
std::vector<std::pair<std::string, std::uint64_t>> top_k(
    const std::map<std::string, std::uint64_t>& counts) {
  std::vector<std::pair<std::string, std::uint64_t>> rows(counts.begin(),
                                                          counts.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (rows.size() > kTopK) rows.resize(kTopK);
  return rows;
}

/// Sum of every point of the series whose leaf name is `leaf_name`.
std::uint64_t sum_leaf(const core::RangeResult& r, std::string_view leaf_name) {
  double total = 0;
  for (const auto& s : r.series) {
    if (leaf(s.name) != leaf_name) continue;
    for (const auto& p : s.points) total += p.value;
  }
  return static_cast<std::uint64_t>(total);
}

core::RangeQuery dashboard_query(std::string selector, common::Timestamp now,
                                 core::Agg agg) {
  return {.selector = std::move(selector),
          .t0 = now > kScrapeWindow ? now - kScrapeWindow : 0,
          .t1 = now,
          .step = kTick,
          .agg = agg};
}

/// Engine-side failures shared by both workloads. The traced run's
/// nf.failed and mq.failed are read back from these kinds.
void engine_failures(const core::NetAlytics& engine,
                     const core::QueryHandle& q, Failures& out) {
  out.fail("nf_ledger", ledger_failures(q.drop_ledger(), kNfFailureCauses));
  out.fail("mq_ledger", ledger_failures(q.drop_ledger(), kMqFailureCauses));
  out.fail("broker_retention",
           engine.drop_ledger().value(common::DropCause::broker_retention));
  out.fail("tsdb_rejected", engine.timeseries_store().stats().rejected_samples);
}

/// Counts read from one engine, added into `c`.
void add_engine_counts(core::NetAlytics& engine, Counts& c) {
  const auto snap = engine.metrics().snapshot();
  for (const auto& s : snap.counters) {
    const auto l = leaf(s.name);
    if (s.name.find(".profiler.") != std::string::npos) {
      if (l == "tuples") c.tuples += s.value;
      continue;
    }
    if (s.name.find(".mon") == std::string::npos) continue;
    if (l == "rx_packets") c.mirrored += s.value;
    else if (l == "parsed") c.parsed += s.value;
    else if (l == "parse_with_output") c.parse_with_output += s.value;
    else if (l == "records") c.records += s.value;
    else if (l == "record_bytes") c.record_bytes += s.value;
  }
  for (const auto& q : engine.queries()) c.results += q->results().size();
  for (const auto tor : engine.emulation().topology().tor_switches()) {
    auto& sw = engine.emulation().switch_of_tor(tor);
    c.switch_rx += sw.stats().rx_packets;
    c.rules = std::max<std::uint64_t>(c.rules, sw.table().size());
  }
  c.series += engine.timeseries_store().stats().series;
  const auto bs = engine.cluster().aggregate_stats();
  c.produced_messages += bs.produced;
  c.produced_records += bs.produced_records;
  c.consumed_records += bs.consumed_records;
}

// ---- http_topk --------------------------------------------------------

constexpr std::size_t kHttpUrls = 1000;
constexpr std::size_t kHttpFrames = 20000;
constexpr std::size_t kHttpFrameSize = 256;
constexpr std::size_t kHttpWindow = 30;  // top-k w=30s, in ticks
constexpr std::size_t kHttpPortsPerClient = 64;

class HttpTraffic final : public Traffic {
 public:
  explicit HttpTraffic(std::uint64_t seed) : seed_(seed), zipf_(kHttpUrls, 1.0) {
    for (std::size_t u = 0; u < kHttpUrls; ++u) {
      urls_.push_back("/item/" + std::to_string(u));
      payloads_.push_back(pktgen::http_get_request(urls_.back(), "h5"));
    }
  }

  void make_tick(std::size_t tick, Frames& out) override {
    out.clear();
    Rng rng(tick_seed(seed_, tick));
    std::vector<std::uint32_t> counts(kHttpUrls, 0);
    for (std::size_t i = 0; i < kHttpFrames; ++i) {
      const std::size_t c = rng.below(hosts_.clients.size());
      const auto port =
          static_cast<net::Port>(20000 + rng.below(kHttpPortsPerClient));
      const std::size_t u = zipf_.sample(rng);
      ++counts[u];
      pktgen::TcpFrameSpec spec;
      spec.flow = {hosts_.clients[c], hosts_.server, port, 80, 6};
      spec.flags = net::tcp_flags::kAck | net::tcp_flags::kPsh;
      spec.seq = static_cast<std::uint32_t>(i);
      spec.payload = payloads_[u];
      spec.pad_to_frame_size = kHttpFrameSize;
      out.add(pktgen::build_tcp_frame(spec),
              tick * kTick + i * (kTick / kHttpFrames), 0);
    }
    window_.push_back(std::move(counts));
    if (window_.size() > kHttpWindow) window_.erase(window_.begin());
  }

  /// Top-10 URLs over the ticks still inside the top-k window.
  std::vector<std::pair<std::string, std::uint64_t>> expected_top() const {
    std::map<std::string, std::uint64_t> totals;
    for (const auto& counts : window_) {
      for (std::size_t u = 0; u < kHttpUrls; ++u) {
        if (counts[u] != 0) totals[urls_[u]] += counts[u];
      }
    }
    return top_k(totals);
  }

 private:
  std::uint64_t seed_;
  Hosts hosts_;
  Zipf zipf_;
  std::vector<std::string> urls_;
  std::vector<std::vector<std::byte>> payloads_;
  std::vector<std::vector<std::uint32_t>> window_;  // per-tick URL counts
};

constexpr std::string_view kHttpQuery =
    "PARSE http_get FROM * TO h5:80 LIMIT 600s SAMPLE * "
    "PROCESS (top-k: k=10, w=30s)";

class HttpEpisode final : public Episode {
 public:
  HttpEpisode(const HttpTraffic& traffic, bool profile,
              std::vector<Timed>& submits)
      : traffic_(traffic),
        emu_(core::Emulation::make_small(4)),
        engine_(emu_, core::EngineConfig{.executor_profiler = profile}) {
    const auto t0 = Clock::now();
    auto q = engine_.submit(kHttpQuery, 0);
    submits.push_back({t0, ms_between(t0, Clock::now())});
    if (q) query_ = *q;
  }

  core::Emulation& emulation(std::size_t) override { return emu_; }
  void pump(common::Timestamp now) override { engine_.pump(now); }
  void pump_steps(common::Timestamp now, std::vector<double>& step_ms) override {
    const auto t0 = Clock::now();
    engine_.pump(now);
    step_ms.push_back(ms_between(t0, Clock::now()));
  }

  bool scrape(common::Timestamp now, std::uint64_t mirrored,
              ScrapeTimes& times) override {
    if (query_ == nullptr) return false;
    const auto t0 = Clock::now();
    const auto mon =
        query_->query_range(dashboard_query("mon", now, core::Agg::sum));
    const auto t1 = Clock::now();
    const auto p99 =
        query_->query_range(dashboard_query("stage", now, core::Agg::p99));
    const auto t2 = Clock::now();
    const std::string prom = engine_.export_metrics();
    const auto t3 = Clock::now();
    times = {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
             prom.size()};
    return sum_leaf(mon, "rx_packets") == mirrored && !p99.series.empty() &&
           !prom.empty();
  }

  Counts counts() override {
    Counts c;
    add_engine_counts(engine_, c);
    return c;
  }
  std::vector<core::NetAlytics*> engines() override { return {&engine_}; }

  void check(common::Timestamp, Failures& out) override {
    out.attempted += 1 + kTopK;  // the submit and every ranked row
    if (query_ == nullptr) {
      out.fail("submit_rejected", 1);
      return;
    }
    const core::QueryHandle& q = *query_;
    engine_failures(engine_, q, out);

    // The newest ranking: the last k rows, [rank, url, count].
    const auto expected = traffic_.expected_top();
    const auto& rows = q.results();
    if (rows.size() < expected.size()) {
      out.fail("result_rows", expected.size(), "fewer ranking rows than expected");
      return;
    }
    const std::size_t first = rows.size() - expected.size();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto& row = rows[first + i];
      const bool same = row.size() == 3 &&
                        stream::as_u64(row.at(0)) == i + 1 &&
                        stream::as_str(row.at(1)) == expected[i].first &&
                        stream::as_u64(row.at(2)) == expected[i].second;
      if (!same) {
        out.fail("result_rows", 1,
                 "rank " + std::to_string(i + 1) + ": got " +
                     stream::format_value(row.at(1)) + "=" +
                     stream::format_value(row.at(row.size() - 1)) +
                     ", expected " + expected[i].first + "=" +
                     std::to_string(expected[i].second));
      }
    }
  }

 private:
  const HttpTraffic& traffic_;
  core::Emulation emu_;
  core::NetAlytics engine_;
  core::QueryHandle* query_ = nullptr;  // null when the submit was rejected
};

// ---- fleet_sql --------------------------------------------------------

constexpr std::size_t kSqlStatements = 200;
constexpr std::size_t kSqlFrames = 10000;  // both children, queries + OKs
constexpr std::size_t kSqlChildren = 2;
constexpr std::size_t kSqlPortsPerClient = 128;
constexpr std::size_t kSqlStatementField = 2;  // {id, ts, statement, latency}

class SqlTraffic final : public Traffic {
 public:
  explicit SqlTraffic(std::uint64_t seed) : seed_(seed), zipf_(kSqlStatements, 1.0) {
    for (std::size_t s = 0; s < kSqlStatements; ++s) {
      statements_.push_back("SELECT name, price FROM items WHERE shard = " +
                            std::to_string(s) + " AND id = ?");
      queries_.push_back(pktgen::mysql_query_packet(statements_.back()));
    }
    ok_ = pktgen::mysql_ok_packet();
  }

  void make_tick(std::size_t tick, Frames& out) override {
    out.clear();
    Rng rng(tick_seed(seed_, tick));
    constexpr std::size_t pairs = kSqlFrames / 2;
    constexpr common::Duration gap = kTick / pairs;
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::size_t c = rng.below(hosts_.clients.size());
      const auto port =
          static_cast<net::Port>(30000 + rng.below(kSqlPortsPerClient));
      const std::size_t s = zipf_.sample(rng);
      ++counts_[statements_[s]];
      const auto child = static_cast<std::uint8_t>(i % kSqlChildren);
      const common::Timestamp t = tick * kTick + i * gap;
      pktgen::TcpFrameSpec q;
      q.flow = {hosts_.clients[c], hosts_.server, port, 3306, 6};
      q.flags = net::tcp_flags::kAck | net::tcp_flags::kPsh;
      q.payload = queries_[s];
      out.add(pktgen::build_tcp_frame(q), t, child);
      pktgen::TcpFrameSpec r;
      r.flow = {hosts_.server, hosts_.clients[c], 3306, port, 6};
      r.flags = net::tcp_flags::kAck | net::tcp_flags::kPsh;
      r.payload = ok_;
      out.add(pktgen::build_tcp_frame(r), t + gap / 2, child);
    }
  }

  const std::map<std::string, std::uint64_t>& counts() const { return counts_; }

 private:
  std::uint64_t seed_;
  Hosts hosts_;
  Zipf zipf_;
  std::vector<std::string> statements_;
  std::vector<std::vector<std::byte>> queries_;
  std::vector<std::byte> ok_;
  std::map<std::string, std::uint64_t> counts_;  // statement -> pairs sent
};

constexpr std::string_view kSqlQuery =
    "PARSE mysql_query FROM * TO h5:3306 LIMIT 600s PROCESS (identity)";

core::FederationConfig fleet_config(bool profile) {
  core::FederationConfig cfg;
  cfg.children = kSqlChildren;
  cfg.child_engine.executor_profiler = profile;
  cfg.top_k = kTopK;
  cfg.key_field = kSqlStatementField;
  return cfg;
}

class FleetEpisode final : public Episode {
 public:
  FleetEpisode(const SqlTraffic& traffic, bool profile,
               std::vector<Timed>& submits)
      : traffic_(traffic), fed_(fleet_config(profile)) {
    const auto t0 = Clock::now();
    const auto ok = fed_.submit(kSqlQuery, 0);
    submits.push_back({t0, ms_between(t0, Clock::now())});
    if (!ok) {
      rejected_ = true;
      return;
    }
    // Connecting the children (HELLO -> WELCOME) is part of building the
    // fleet: one round at t=0, before the first frame, so the parent sees
    // the first tick's counters at the first scrape.
    fed_.pump(0);
  }

  core::Emulation& emulation(std::size_t target) override {
    return fed_.emulation(target);
  }
  void pump(common::Timestamp now) override { fed_.pump(now); }
  /// Federation::pump's four public steps, in its order.
  void pump_steps(common::Timestamp now, std::vector<double>& step_ms) override {
    const std::size_t n = fed_.children();
    auto t = Clock::now();
    const auto lap = [&] {
      const auto t2 = Clock::now();
      step_ms.push_back(ms_between(t, t2));
      t = t2;
    };
    for (std::size_t i = 0; i < n; ++i) fed_.engine(i).pump(now);
    lap();
    if (!rejected_) {
      for (std::size_t i = 0; i < n; ++i) fed_.child(i).pump(now);
    }
    lap();
    fed_.parent().pump(now);
    lap();
    if (!rejected_) {
      for (std::size_t i = 0; i < n; ++i) fed_.child(i).flush(now);
    }
    lap();
  }

  bool scrape(common::Timestamp now, std::uint64_t mirrored,
              ScrapeTimes& times) override {
    if (rejected_) return false;
    // Monitor counters arrive at the parent as METRICS frames; stage
    // histograms are not federated, so their p99 is read on each child.
    const auto t0 = Clock::now();
    std::uint64_t rx = 0;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      rx += sum_leaf(fed_.query_range(dashboard_query(
                         "fleet.child" + std::to_string(i) + ".q1.mon", now,
                         core::Agg::sum)),
                     "rx_packets");
    }
    const auto t1 = Clock::now();
    bool histograms = true;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      histograms = histograms && !fed_.query(i)
                                      ->query_range(dashboard_query(
                                          "stage", now, core::Agg::p99))
                                      .series.empty();
    }
    const auto t2 = Clock::now();
    const std::string prom = fed_.export_metrics();
    const auto t3 = Clock::now();
    times = {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
             prom.size()};
    return rx == mirrored && histograms && !prom.empty();
  }

  void check(common::Timestamp now, Failures& out) override {
    out.attempted += 1 + kTopK;  // the submit and every ranked row
    if (rejected_) {
      out.fail("submit_rejected", 1);
      return;
    }
    fed_.settle(now + kTick);
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      engine_failures(fed_.engine(i), *fed_.query(i), out);
      const auto rec = fed_.engine(i).reconcile(*fed_.query(i));
      if (!rec.exact()) {
        out.fail("child_reconcile", static_cast<std::uint64_t>(
                                        std::llabs(rec.residual())),
                 "child " + std::to_string(i) + " reconcile residual " +
                     std::to_string(rec.residual()));
      }
    }
    const auto fleet = fed_.reconcile();
    std::uint64_t lost = 0, overflow = 0;
    for (const auto& c : fleet.children) {
      lost += c.lost;
      overflow += c.overflow;
    }
    out.fail("fed_lost", lost);
    out.fail("fed_overflow", overflow);
    if (!fleet.exact()) out.fail("fed_reconcile", 1, fleet.render());

    const auto expected = top_k(traffic_.counts());
    const stream::Rankings ranking = fed_.parent().top_k().global();
    const auto& got = ranking.entries();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (i >= got.size() || got[i].key != expected[i].first ||
          got[i].count != expected[i].second) {
        out.fail("result_rows", 1,
                 "fleet rank " + std::to_string(i + 1) + ": got " +
                     (i < got.size()
                          ? got[i].key + "=" + std::to_string(got[i].count)
                          : std::string("nothing")) +
                     ", expected " + expected[i].first + "=" +
                     std::to_string(expected[i].second));
      }
    }
  }

  Counts counts() override {
    Counts c;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      add_engine_counts(fed_.engine(i), c);
    }
    c.series += fed_.parent().store().stats().series;
    for (std::size_t i = 0; i < fed_.children(); ++i) {
      c.wire_bytes += fed_.link(i).stats().bytes_up;
      const auto& ps = fed_.parent().child_stats(i);
      c.applied += ps.applied;
      c.duplicates += ps.duplicate_records;
    }
    return c;
  }
  std::vector<core::NetAlytics*> engines() override {
    std::vector<core::NetAlytics*> out;
    for (std::size_t i = 0; i < fed_.children(); ++i) out.push_back(&fed_.engine(i));
    return out;
  }

 private:
  const SqlTraffic& traffic_;
  fed::Federation fed_;
  bool rejected_ = false;  // the submit was rejected
};

// ---- registry ---------------------------------------------------------

std::unique_ptr<Episode> make_http(const Traffic& traffic, bool profile,
                                   std::vector<Timed>& submits) {
  return std::make_unique<HttpEpisode>(static_cast<const HttpTraffic&>(traffic),
                                       profile, submits);
}

std::unique_ptr<Episode> make_fleet(const Traffic& traffic, bool profile,
                                    std::vector<Timed>& submits) {
  return std::make_unique<FleetEpisode>(static_cast<const SqlTraffic&>(traffic),
                                        profile, submits);
}

}  // namespace

std::uint64_t ledger_failures(const common::DropLedger& ledger,
                              std::span<const common::DropCause> causes) {
  std::uint64_t n = 0;
  for (const auto c : causes) n += ledger.value(c);
  return n;
}

std::string Counts::render() const {
  std::string out;
  for (const auto& [name, v] : std::initializer_list<
           std::pair<const char*, std::uint64_t>>{
           {"frames", frames},
           {"switch_rx", switch_rx},
           {"mirrored", mirrored},
           {"parsed", parsed},
           {"parse_with_output", parse_with_output},
           {"records", records},
           {"record_bytes", record_bytes},
           {"results", results},
           {"rules", rules},
           {"series", series},
           {"produced_messages", produced_messages},
           {"produced_records", produced_records},
           {"consumed_records", consumed_records},
           {"tuples", tuples},
           {"wire_bytes", wire_bytes},
           {"applied", applied},
           {"duplicates", duplicates},
           {"export_bytes", export_bytes},
           {"failed", failed},
           {"attempted", attempted}}) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

void Failures::fail(const std::string& kind, std::uint64_t n, std::string note) {
  if (n == 0) return;
  by_kind[kind] += n;
  if (!note.empty() && notes.size() < kNotesKept) notes.push_back(std::move(note));
}

std::uint64_t Failures::total() const {
  std::uint64_t n = 0;
  for (const auto& [kind, count] : by_kind) n += count;
  return n;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    w.push_back(Workload{
        .name = "http_topk",
        .frames_per_tick = kHttpFrames,
        .ticks = 40,
        .setup_reps = 40,
        .parsers = {"http_get"},
        .make_traffic = [](std::uint64_t seed) -> std::unique_ptr<Traffic> {
          return std::make_unique<HttpTraffic>(seed);
        },
        .make_episode = make_http});
    w.push_back(Workload{
        .name = "fleet_sql",
        .frames_per_tick = kSqlFrames,
        .ticks = 40,
        .setup_reps = 20,
        .parsers = {"mysql_query"},
        .make_traffic = [](std::uint64_t seed) -> std::unique_ptr<Traffic> {
          return std::make_unique<SqlTraffic>(seed);
        },
        .make_episode = make_fleet});
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace netbench
