// Component microbenchmarks: per-packet decode, each Table-1 parser,
// flow-table lookup, sampling, the emulated fabric hop, and the top-k window
// operations — the per-stage costs behind the Fig. 5/6 system numbers.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/emulation.hpp"
#include "nf/monitor.hpp"
#include "nf/parser.hpp"
#include "nf/sampler.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/generator.hpp"
#include "sdn/flow_table.hpp"
#include "stream/topk.hpp"

using namespace netalytics;

namespace {

struct NullSink final : nf::RecordSink {
  void emit(const nf::RecordView&) override {}
};

void BM_DecodePacket(benchmark::State& state) {
  pktgen::GeneratorConfig cfg;
  cfg.kind = pktgen::TrafficKind::http_get;
  cfg.frame_size = static_cast<std::size_t>(state.range(0));
  pktgen::TrafficGenerator gen(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_packet(gen.next_frame()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodePacket)->Arg(64)->Arg(512)->Arg(1024);

void BM_Parser(benchmark::State& state, const char* parser_name,
               pktgen::TrafficKind kind) {
  parsers::register_builtin_parsers();
  pktgen::GeneratorConfig cfg;
  cfg.kind = kind;
  cfg.frame_size = 512;
  pktgen::TrafficGenerator gen(cfg);
  auto parser = nf::ParserRegistry::instance().make(parser_name);
  NullSink sink;
  for (auto _ : state) {
    auto decoded = net::decode_packet(gen.next_frame());
    parser->on_packet(*decoded, sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Parser, tcp_flow_key, "tcp_flow_key",
                  pktgen::TrafficKind::raw_tcp);
BENCHMARK_CAPTURE(BM_Parser, tcp_conn_time, "tcp_conn_time",
                  pktgen::TrafficKind::tcp_lifecycle);
BENCHMARK_CAPTURE(BM_Parser, tcp_pkt_size, "tcp_pkt_size",
                  pktgen::TrafficKind::raw_tcp);
BENCHMARK_CAPTURE(BM_Parser, http_get, "http_get", pktgen::TrafficKind::http_get);
BENCHMARK_CAPTURE(BM_Parser, memcached_get, "memcached_get",
                  pktgen::TrafficKind::memcached_get);
BENCHMARK_CAPTURE(BM_Parser, mysql_query, "mysql_query",
                  pktgen::TrafficKind::mysql_query);

// The monitor's inline entry as the engine configures it (bound registry,
// stage tracer, drop ledger, trace recorder with tracing off, 32-record
// output batches): sample -> http_get parse -> encode into the open batch ->
// ship. Frames are 256-B GETs over 1,000 Zipf URLs, decoded up front, so
// this is Monitor::process(const DecodedPacket&) alone. `pushed` adds the
// combiner a top-k query pushes (request filter, count per URL) and ticks
// the monitor every 20,000 packets, as the engine's 1 s tick does at
// 20k pkt/s: the tick ships one partial per URL instead of a record per
// packet.
void monitor_process(benchmark::State& state, bool pushed) {
  parsers::register_builtin_parsers();
  common::MetricsRegistry registry;
  common::StageTracer tracer(registry, "q1");
  common::DropLedger ledger(registry, "q1.drop");
  common::TraceRecorder recorder(common::TraceRecorder::Config{.sample_denominator = 0});
  nf::MonitorConfig cfg;
  cfg.parsers.push_back({"http_get", 1, /*ship_raw=*/!pushed});
  if (pushed) {
    cfg.combiners.push_back({.parser = "http_get",
                             .topic = "q1.proc0.http_get",
                             .key_fields = {3},
                             .value_field = nf::kNoField,
                             .filter_field = 2,
                             .filter_equals = "request"});
  }
  cfg.output_batch_records = 32;
  cfg.metrics = &registry;
  cfg.metrics_prefix = "q1.mon0";
  cfg.tracer = &tracer;
  cfg.trace_recorder = &recorder;
  cfg.drop_ledger = &ledger;
  std::uint64_t shipped = 0;
  nf::Monitor monitor(cfg, [&shipped](std::string_view, std::vector<std::byte> payload,
                                      const nf::BatchInfo&) {
    shipped += payload.size();
  });

  pktgen::GeneratorConfig gen_cfg;
  gen_cfg.kind = pktgen::TrafficKind::http_get;
  gen_cfg.frame_size = 256;
  gen_cfg.url_count = 1000;
  pktgen::TrafficGenerator gen(gen_cfg);
  std::vector<net::DecodedPacket> packets;
  for (std::size_t i = 0; i < 4096; ++i) {
    packets.push_back(*net::decode_packet(gen.next_frame()));
  }
  common::Timestamp now = common::kSecond;
  std::size_t i = 0;
  std::size_t since_tick = 0;
  for (auto _ : state) {
    net::DecodedPacket& pkt = packets[i];
    pkt.timestamp = now;
    monitor.process(pkt);
    now += 1000;
    i = (i + 1) % packets.size();
    if (pushed && ++since_tick == 20000) {
      monitor.tick(now);
      since_tick = 0;
    }
  }
  monitor.close(now);
  benchmark::DoNotOptimize(shipped);
  state.SetItemsProcessed(state.iterations());
}
void BM_MonitorProcess(benchmark::State& state) { monitor_process(state, false); }
BENCHMARK(BM_MonitorProcess);
void BM_MonitorProcessPushed(benchmark::State& state) { monitor_process(state, true); }
BENCHMARK(BM_MonitorProcessPushed);

void BM_FlowSampler(benchmark::State& state) {
  nf::FlowSampler sampler(0.5);
  std::uint64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.keep(h++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowSampler);

void BM_FlowTableLookup(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  sdn::FlowTable table(static_cast<std::size_t>(rules) + 1);
  for (int i = 0; i < rules; ++i) {
    sdn::FlowRule rule;
    rule.priority = 10;
    rule.match.dst_port = static_cast<net::Port>(1000 + i);
    rule.actions = {sdn::OutputAction{0}};
    table.install(rule, 0);
  }
  sdn::FlowRule fallback;
  fallback.priority = 0;
  fallback.actions = {sdn::OutputAction{0}};
  table.install(fallback, 0);

  pktgen::GeneratorConfig cfg;
  cfg.kind = pktgen::TrafficKind::raw_tcp;
  pktgen::TrafficGenerator gen(cfg);
  const auto decoded = net::decode_packet(gen.next_frame());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(*decoded, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(4)->Arg(64)->Arg(512);

// One mirrored cross-rack frame through the emulated fabric: decode at
// ingress, source ToR, destination ToR (mirror rule hit), monitor sink.
void BM_EmulationTransmit(benchmark::State& state) {
  auto emu = core::Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");  // another rack: two ToR hops
  const auto dst_tor = emu.topology().tor_of_host(*emu.node_of_name("h5"));
  std::uint64_t mirrored = 0;
  const auto port = emu.attach_monitor(
      dst_tor, [&mirrored](const net::DecodedPacket&) { ++mirrored; });
  sdn::FlowMatch match;
  match.dst_prefix = net::Ipv4Prefix{dst, 32};
  match.dst_port = 80;
  emu.controller().install_mirror(core::Emulation::switch_id(dst_tor), match,
                                  core::Emulation::kDeliveryPort, port, 10, 0);

  pktgen::GeneratorConfig cfg;
  cfg.kind = pktgen::TrafficKind::http_get;
  cfg.flow_count = 1;
  cfg.src_base = src;
  cfg.dst_base = dst;
  pktgen::TrafficGenerator gen(cfg);
  common::Timestamp ts = 0;
  for (auto _ : state) {
    emu.transmit(gen.next_frame(), ++ts);
  }
  if (mirrored != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a transmitted frame missed the mirror port");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulationTransmit);

// Arg: distinct keys. /4 stays in cache; /1000 is the http_topk URL set.
void BM_RollingCounterIncr(benchmark::State& state) {
  stream::RollingCounter counter(10);
  std::vector<std::string> keys;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    std::string key = "/url";
    key += std::to_string(k);
    keys.push_back(std::move(key));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    counter.incr(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RollingCounterIncr)->Arg(4)->Arg(1000);

// Every update raises a count, so every key enters the ranking.
void BM_RankingsUpdate(benchmark::State& state) {
  stream::Rankings rankings(10);
  std::uint64_t i = 0;
  for (auto _ : state) {
    rankings.update("key" + std::to_string(i % 50), i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankingsUpdate);

// The rank bolt's real input: running counts of Zipf(1.0) keys over 1,000
// URLs into a top-10. About 60% of updates are for keys outside the top
// 10 and sort below its k-th entry.
void BM_RankingsUpdateZipf(benchmark::State& state) {
  constexpr std::size_t kKeys = 1000;
  std::vector<std::string> names;
  for (std::size_t k = 0; k < kKeys; ++k) {
    std::string name = "/url";
    name += std::to_string(k);
    names.push_back(std::move(name));
  }
  common::Rng rng(7);
  const common::ZipfSampler zipf(kKeys, 1.0);
  std::vector<std::size_t> sequence(1 << 16);
  for (auto& key : sequence) key = zipf.sample(rng);
  std::vector<std::uint64_t> counts(kKeys, 0);
  stream::Rankings rankings(10);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t key = sequence[i++ & (sequence.size() - 1)];
    rankings.update(names[key], ++counts[key]);
    benchmark::DoNotOptimize(rankings);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankingsUpdateZipf);

}  // namespace
