// Per-layer attribution for the traced run. Layers the engine calls
// internally are timed by replaying the run's own frames or batches
// through their public functions (decode, flow-table lookup, monitor
// process, producer send/flush, consumer poll_batch, registry snapshot,
// store capture); counts and failures are the episode's own Counts and
// Failures, the ones the determinism self-test compares.
#include <algorithm>
#include <optional>

#include "common/trace.hpp"
#include "mq/consumer.hpp"
#include "mq/producer.hpp"
#include "net/decode.hpp"
#include "netbench.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "tsdb/store.hpp"

namespace netbench {

/// Replay results are folded in here (external linkage, so the compiler
/// cannot drop the replayed calls as unused).
std::uint64_t replay_sink = 0;

namespace {

constexpr int kRounds = 5;  // replay passes; the median pass is reported

/// Median wall time (ms) of kRounds calls of `f`.
template <typename F>
double median_ms(F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

struct Batch {
  std::string topic;
  mq::Payload payload;  // immutable and shared, so every pass resends it
  std::size_t records = 0;
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.decode_ns", "ns"},
      {"net.decodes_per_pkt", "ratio"},
      {"sdn.lookup_ns", "ns"},
      {"sdn.rules_max", "count"},
      {"sdn.mirror_ratio", "ratio"},
      {"nf.process_ns", "ns"},
      {"nf.records_per_pkt", "ratio"},
      {"nf.record_bytes_per_pkt", "B"},
      {"nf.parse_yield", "ratio"},
      {"mq.produce_ns_per_record", "ns"},
      {"mq.poll_ns_per_record", "ns"},
      {"mq.records_per_message", "ratio"},
      {"mq.consumed_per_produced", "ratio"},
      {"stream.self_ns_per_tuple.parse0", "ns"},
      {"stream.self_ns_per_tuple.filter", "ns"},
      {"stream.self_ns_per_tuple.count", "ns"},
      {"stream.self_ns_per_tuple.rank", "ns"},
      {"stream.self_ns_per_tuple.total", "ns"},
      {"stream.self_ns_per_tuple.sink", "ns"},
      {"stream.spout_ms_per_tick", "ms"},
      {"stream.queue_wait_ns_per_tuple", "ns"},
      {"stream.tuples_per_pkt", "ratio"},
      {"tsdb.capture_ms", "ms"},
      {"common.snapshot_ms", "ms"},
      {"tsdb.series", "count"},
      {"fed.wire_bytes_per_record", "B"},
      {"nf.failed", "count"},
      {"mq.failed", "count"},
      {"tsdb.rejected_samples", "count"},
      {"fed.lost", "count"},
      {"fed.duplicates", "count"},
  };
  return units;
}

LayerReplay replay_layers(const LayerInputs& in) {
  LayerReplay out;
  auto& m = out.metrics;
  const Frames& frames = *in.frames;
  const Counts& c = *in.counts;
  const auto failed = [&in](const char* kind) {
    const auto it = in.failures->by_kind.find(kind);
    return it == in.failures->by_kind.end() ? 0.0
                                            : static_cast<double>(it->second);
  };
  const auto engines = in.episode->engines();
  const core::NetAlytics& engine0 = *engines.front();
  const double n = static_cast<double>(frames.size());
  const auto ticks = static_cast<double>(in.workload->ticks);

  // ---- net: decode replay; decodes per packet along the path ----------
  const double decode_ms = median_ms([&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto d = net::decode_packet(frames.frame(i));
      replay_sink += d ? d->l4_payload_size : 0;
    }
  });
  m["net.decode_ns"] = decode_ms * 1e6 / n;

  // ---- sdn: lookups on the live ToR tables ----------------------------
  // Each frame is looked up on the tables of the ToRs it visits, as
  // Emulation::transmit does: its source's, then its destination's.
  std::vector<net::DecodedPacket> decoded;
  std::vector<std::pair<sdn::FlowTable*, std::size_t>> lookups;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto d = net::decode_packet(frames.frame(i));
    if (!d) continue;
    decoded.push_back(*d);
    core::Emulation& emu = in.episode->emulation(frames.target[i]);
    std::optional<dcn::NodeId> prev;
    for (const auto ip : {d->ipv4.src, d->ipv4.dst}) {
      const auto node = emu.node_of_ip(ip);
      if (!node) continue;
      const auto tor = emu.topology().tor_of_host(*node);
      if (prev == tor) continue;
      prev = tor;
      lookups.emplace_back(&emu.switch_of_tor(tor).table(), decoded.size() - 1);
    }
  }
  const double lookup_ms = median_ms([&] {
    for (const auto& [table, i] : lookups) {
      const auto* rule = table->lookup(decoded[i], core::Emulation::kIngressPort);
      replay_sink += rule != nullptr;
    }
  });
  m["sdn.lookup_ns"] =
      ratio(lookup_ms * 1e6, static_cast<double>(lookups.size()));
  m["sdn.rules_max"] = static_cast<double>(c.rules);
  m["sdn.mirror_ratio"] = ratio(c.mirrored, c.switch_rx);
  m["net.decodes_per_pkt"] =
      ratio(c.frames + c.switch_rx + c.mirrored, c.frames);

  // ---- nf: a standalone monitor with the workload's parsers ----------
  parsers::register_builtin_parsers();
  std::vector<Batch> batches;
  double process_ms = 0;
  {
    std::vector<double> ms;
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Batch> collected;
      nf::MonitorConfig mcfg;
      for (const auto& p : in.workload->parsers) mcfg.parsers.push_back({p, 1});
      mcfg.output_batch_records = engine0.config().monitor_output_batch;
      nf::Monitor monitor(mcfg, [&collected](std::string_view topic,
                                             std::vector<std::byte> payload,
                                             const nf::BatchInfo& info) {
        collected.push_back(
            {std::string(topic), mq::Payload(std::move(payload)), info.records});
      });
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < frames.size(); ++i) {
        monitor.process(frames.frame(i), frames.ts[i]);
      }
      monitor.tick(frames.ts.back() + 1);
      ms.push_back(ms_between(t0, Clock::now()));
      if (r == 0) batches = std::move(collected);
    }
    std::sort(ms.begin(), ms.end());
    process_ms = ms[ms.size() / 2];
  }
  m["nf.process_ns"] = process_ms * 1e6 / n;
  m["nf.records_per_pkt"] = ratio(c.records, c.mirrored);
  m["nf.record_bytes_per_pkt"] = ratio(c.record_bytes, c.mirrored);
  m["nf.parse_yield"] = ratio(c.parse_with_output, c.parsed);

  // ---- mq: the run's own batches through a fresh cluster -------------
  std::uint64_t replay_records = 0;
  for (const auto& b : batches) replay_records += b.records;
  std::vector<double> produce_ms, poll_ms;
  for (int r = 0; r < kRounds; ++r) {
    const auto& cfg = engine0.config();
    mq::Cluster cluster(cfg.mq_brokers, cfg.broker);
    mq::Producer producer(cluster, 1, nullptr, cfg.producer_retry,
                          cfg.producer_batch);
    const common::Timestamp now = common::kSecond;
    const auto t0 = Clock::now();
    for (const auto& b : batches) producer.send(b.topic, b.payload, now, b.records);
    producer.drain(now);
    const auto t1 = Clock::now();
    mq::Consumer consumer(cluster, "replay");
    std::uint64_t polled = 0;
    const auto t2 = Clock::now();
    for (const auto& p : in.workload->parsers) {
      for (;;) {
        const auto fetched = consumer.poll_batch(p, 64);
        if (fetched.empty()) break;
        polled += fetched.total_records;
      }
    }
    const auto t3 = Clock::now();
    replay_sink += polled;
    produce_ms.push_back(ms_between(t0, t1));
    poll_ms.push_back(ms_between(t2, t3));
  }
  std::sort(produce_ms.begin(), produce_ms.end());
  std::sort(poll_ms.begin(), poll_ms.end());
  const auto per_record =
      static_cast<double>(std::max<std::uint64_t>(1, replay_records));
  m["mq.produce_ns_per_record"] = produce_ms[kRounds / 2] * 1e6 / per_record;
  m["mq.poll_ns_per_record"] = poll_ms[kRounds / 2] * 1e6 / per_record;
  m["mq.records_per_message"] = ratio(c.produced_records, c.produced_messages);
  m["mq.consumed_per_produced"] = ratio(c.consumed_records, c.produced_records);

  // ---- stream: executor profiler counters (on in traced episodes) ----
  std::map<std::string, std::pair<double, double>> component;  // self, tuples
  double self_total = 0, wait_total = 0, spout_self = 0;
  for (auto* e : engines) {
    for (const auto& ctr : e->metrics().snapshot().counters) {
      const auto pos = ctr.name.find(".profiler.");
      if (pos == std::string::npos) continue;
      const std::string rest = ctr.name.substr(pos + 10);  // <comp>.t<k>.<leaf>
      const auto dot = rest.find('.');
      if (dot == std::string::npos || rest.compare(0, dot, "pool") == 0) continue;
      const std::string comp = rest.substr(0, dot);
      const auto l = leaf(ctr.name);
      const auto v = static_cast<double>(ctr.value);
      if (l == "self_ns") {
        component[comp].first += v;
        self_total += v;
        if (comp.rfind("spout", 0) == 0) spout_self += v;
      } else if (l == "tuples") {
        component[comp].second += v;
      } else if (l == "queue_wait_ns") {
        wait_total += v;
      }
    }
  }
  for (const auto& [comp, st] : component) {
    m["stream.self_ns_per_tuple." + comp] = ratio(st.first, st.second);
  }
  m["stream.spout_ms_per_tick"] = spout_self / 1e6 / ticks;
  m["stream.queue_wait_ns_per_tuple"] =
      ratio(wait_total, static_cast<double>(c.tuples));
  m["stream.tuples_per_pkt"] = ratio(c.tuples, c.frames);

  // ---- tsdb / common: snapshot and capture replays --------------------
  const double snapshot_ms = median_ms([&] {
    replay_sink += engine0.metrics().snapshot().counters.size();
  });
  // Captures one tick apart in which every counter moved, as in a run
  // (a repeated identical snapshot would store only zero deltas).
  std::vector<common::MetricsSnapshot> snaps(kRounds,
                                             engine0.metrics().snapshot());
  for (std::size_t r = 0; r < snaps.size(); ++r) {
    for (auto& c : snaps[r].counters) c.value += r + 1;
  }
  tsdb::TieredStore store(engine0.timeseries_store().config());
  std::size_t round = 0;
  const double capture_ms = median_ms([&] {
    store.capture((round + 1) * common::kSecond, snaps[round]);
    ++round;
  });
  m["common.snapshot_ms"] = snapshot_ms;
  m["tsdb.capture_ms"] = capture_ms;
  m["tsdb.series"] = static_cast<double>(c.series);

  // ---- failures and fed accounting: the episode's own failed kinds ----
  m["nf.failed"] = failed("nf_ledger");
  m["mq.failed"] = failed("mq_ledger") + failed("broker_retention");
  m["tsdb.rejected_samples"] = failed("tsdb_rejected");
  m["fed.lost"] = failed("fed_lost") + failed("fed_overflow");
  m["fed.duplicates"] = static_cast<double>(c.duplicates);
  m["fed.wire_bytes_per_record"] = ratio(c.wire_bytes, c.applied);

  // ---- replayed cost of one tick ---------------------------------------
  // The spouts' profiler self time includes their Consumer::poll_batch
  // calls, so the poll is covered by self_total, not by the poll replay.
  const double per_tick = 1.0 / ticks;
  const double engines_n = static_cast<double>(engines.size());
  out.replay_ms_per_tick =
      (m["net.decode_ns"] * static_cast<double>(c.frames + c.switch_rx) +
       m["sdn.lookup_ns"] * static_cast<double>(c.switch_rx) +
       m["nf.process_ns"] * static_cast<double>(c.mirrored) +
       m["mq.produce_ns_per_record"] * static_cast<double>(c.records) +
       self_total) /
          1e6 * per_tick +
      (snapshot_ms + capture_ms) * engines_n;
  return out;
}

}  // namespace netbench
