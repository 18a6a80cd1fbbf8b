// Trace-provenance overhead: the fig6-style pipeline (generated http_get
// frames -> monitor -> producer -> broker -> kafka spout) run at trace
// sample denominators {off, 1024, 256, 16, 1}. The flight recorder's cost
// is one hash per admitted packet plus, for sampled packets, a span stamp
// at every stage; the acceptance bar is <= 5% throughput cost at 1/256
// against tracing disabled.
//
// Two observability-export cells ride along: serialization throughput of
// the chrome://tracing exporter over the spans the 1/256 and 1/1 runs
// collected (spans/sec and JSON bytes), and the executor stage profiler's
// throughput cost on a stepped topology (bar: <= 5% against profiling
// off).
//
// Results land in BENCH_trace.json in the working directory.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "mq/producer.hpp"
#include "nf/monitor.hpp"
#include "obs/chrome_trace.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/generator.hpp"
#include "stream/bolts.hpp"
#include "stream/executor.hpp"
#include "stream/kafka_spout.hpp"

using namespace netalytics;

namespace {

constexpr std::size_t kFrameSize = 512;
constexpr std::size_t kPackets = 200'000;
constexpr std::size_t kFlushEvery = 4096;

struct TupleCounter final : stream::Collector {
  void emit(stream::Tuple) override { ++tuples; }
  std::uint64_t tuples = 0;
};

struct RunResult {
  double pkts_per_sec = 0;
  std::uint64_t spans = 0;
  std::uint64_t tuples = 0;
};

/// One full pipeline pass over kPackets pre-built frames with the recorder
/// at `denominator` (0 = tracing off). Virtual time advances one unit per
/// packet; real time is what the clock measures. `spans_out`, when given,
/// receives the collected spans (for the export cells).
RunResult run_pipeline(std::uint64_t denominator,
                       std::vector<common::TraceSpan>* spans_out = nullptr) {
  parsers::register_builtin_parsers();
  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.frame_size = kFrameSize;
  pktgen::TrafficGenerator gen(gcfg);
  // Frames are built outside the timed region: the clock sees the pipeline,
  // not the packet generator.
  std::vector<std::vector<std::byte>> frames;
  frames.reserve(kFlushEvery);
  for (std::size_t i = 0; i < kFlushEvery; ++i) {
    const auto f = gen.next_frame();
    frames.emplace_back(f.begin(), f.end());
  }

  common::MetricsRegistry registry;
  common::TraceRecorder recorder(
      common::TraceRecorder::Config{.sample_denominator = denominator});
  common::DropLedger ledger(registry, "drop");

  mq::Cluster cluster(1);
  mq::Producer producer(cluster, 1);
  producer.bind_metrics(registry, "producer", nullptr, &recorder, &ledger);

  common::Timestamp now = 0;
  nf::MonitorConfig mcfg;
  mcfg.parsers = {{"http_get", 1}};
  mcfg.metrics = &registry;
  mcfg.trace_recorder = &recorder;
  mcfg.drop_ledger = &ledger;
  nf::Monitor monitor(mcfg, [&producer, &now](std::string_view topic,
                                              std::vector<std::byte> payload,
                                              const nf::BatchInfo& info) {
    producer.send(topic, std::move(payload), now, info.records,
                  {info.traces.begin(), info.traces.end()});
  });

  stream::KafkaSpout spout(cluster, "bench", "http_get");
  spout.bind_metrics(registry, "spout", nullptr, &recorder, &ledger);
  TupleCounter sink;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPackets; ++i) {
    monitor.process(frames[i % kFlushEvery], ++now);
    if ((i + 1) % kFlushEvery == 0) {
      producer.flush(now);
      while (spout.next_tuple(sink, now)) {
      }
    }
  }
  monitor.close(now);
  producer.drain(now);
  while (spout.next_tuple(sink, now)) {
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult r;
  r.pkts_per_sec = static_cast<double>(kPackets) / secs;
  r.spans = recorder.span_count();
  r.tuples = sink.tuples;
  if (spans_out != nullptr) *spans_out = recorder.collect();
  return r;
}

RunResult best_of_three(std::uint64_t denominator) {
  RunResult best = run_pipeline(denominator);
  for (int i = 0; i < 2; ++i) {
    const RunResult r = run_pipeline(denominator);
    if (r.pkts_per_sec > best.pkts_per_sec) best = r;
  }
  return best;
}

struct ExportCell {
  std::uint64_t denominator = 0;
  std::uint64_t spans = 0;
  std::size_t json_bytes = 0;
  double spans_per_sec = 0;
};

/// Serialization throughput of the chrome-trace exporter over the span set
/// one pipeline run at `denominator` collected. Repeated exports amortize
/// the clock; best of three repetitions.
ExportCell measure_export(std::uint64_t denominator) {
  std::vector<common::TraceSpan> spans;
  run_pipeline(denominator, &spans);
  const obs::ChromeTraceExporter exporter;
  constexpr int kReps = 50;
  ExportCell cell;
  cell.denominator = denominator;
  cell.spans = spans.size();
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    std::string json;
    for (int i = 0; i < kReps; ++i) json = exporter.export_json(spans);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    cell.json_bytes = json.size();
    const double rate =
        static_cast<double>(spans.size()) * kReps / (secs > 0 ? secs : 1e-9);
    if (rate > cell.spans_per_sec) cell.spans_per_sec = rate;
  }
  return cell;
}

constexpr std::size_t kProfilerTuples = 200'000;

/// Counting spout for the profiler cell: `n` two-field tuples.
struct CountSpout final : stream::Spout {
  explicit CountSpout(std::size_t n) : left(n) {}
  bool next_tuple(stream::Collector& out, common::Timestamp) override {
    if (left == 0) return false;
    --left;
    std::string key = "k";
    key += std::to_string(left % 8);
    out.emit(stream::Tuple{{std::uint64_t(left), std::move(key)}});
    return true;
  }
  std::size_t left;
};

/// Tuples/sec of a stepped filter -> group-agg -> sink topology with the
/// stage profiler on or off. Same virtual-time loop either way; the
/// profiler adds two steady_clock reads per task execution and one relaxed
/// add per tuple.
double run_profiled_topology(bool profile) {
  stream::TopologyBuilder b("prof");
  b.set_spout(
      "s", [] { return std::make_unique<CountSpout>(kProfilerTuples); },
      {"n", "k"});
  b.set_bolt("pass",
             [] {
               return std::make_unique<stream::FilterBolt>(
                   [](const stream::Tuple& t) {
                     return stream::as_u64(t.at(0)) % 7 != 0;
                   });
             },
             {"n", "k"}, 2)
      .shuffle_grouping("s");
  b.set_bolt("agg",
             [] {
               stream::GroupAggConfig cfg;
               cfg.group_indices = {1};
               cfg.value_index = 0;
               cfg.op = stream::AggOp::sum;
               return std::make_unique<stream::GroupAggBolt>(cfg);
             },
             {"k", "sum", "samples"}, 2)
      .fields_grouping("pass", {"k"});
  b.set_bolt("sink",
             [] {
               return std::make_unique<stream::SinkBolt>(
                   [](const stream::Tuple&) {});
             },
             {})
      .global_grouping("agg");

  common::MetricsRegistry registry;
  auto topo = stream::make_executor(
      b.build(), stream::ExecutorConfig{.workers = 1, .profile = profile});
  topo->bind_metrics(registry, "bench");
  common::Timestamp now = 0;
  const auto start = std::chrono::steady_clock::now();
  while (topo->step(++now, 1024) > 0) {
  }
  topo->close(++now);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(topo->tuples_executed()) / secs;
}

double best_profiled(bool profile) {
  double best = run_profiled_topology(profile);
  for (int i = 0; i < 2; ++i) {
    const double r = run_profiled_topology(profile);
    if (r > best) best = r;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== trace provenance overhead: %zu pkts/run, %zu B frames ==\n",
              kPackets, kFrameSize);

  const std::uint64_t denominators[] = {0, 1024, 256, 16, 1};
  RunResult results[5];
  for (int i = 0; i < 5; ++i) results[i] = best_of_three(denominators[i]);
  const double baseline = results[0].pkts_per_sec;

  std::printf("%-12s %14s %12s %10s %10s\n", "sample rate", "pkts/s",
              "overhead", "spans", "tuples");
  double overhead[5] = {};
  for (int i = 0; i < 5; ++i) {
    overhead[i] = (baseline - results[i].pkts_per_sec) / baseline * 100.0;
    char label[24];
    if (denominators[i] == 0) {
      std::snprintf(label, sizeof label, "off");
    } else {
      std::snprintf(label, sizeof label, "1/%llu",
                    static_cast<unsigned long long>(denominators[i]));
    }
    std::printf("%-12s %14.0f %11.2f%% %10llu %10llu\n", label,
                results[i].pkts_per_sec, overhead[i],
                static_cast<unsigned long long>(results[i].spans),
                static_cast<unsigned long long>(results[i].tuples));
    if (results[i].tuples == 0) {
      std::fprintf(stderr, "pipeline produced no tuples at %s\n", label);
      return 1;
    }
    if (denominators[i] != 0 && results[i].spans == 0) {
      std::fprintf(stderr, "recorder captured no spans at %s\n", label);
      return 1;
    }
  }

  const bool trace_pass = overhead[2] <= 5.0;  // the 1/256 bar
  std::printf("\noverhead at 1/256: %.2f%% (target <= 5%%): %s\n", overhead[2],
              trace_pass ? "yes" : "NO");

  // Export path: chrome-trace serialization over the collected span sets.
  std::printf("\n== chrome-trace export path ==\n");
  std::printf("%-12s %10s %12s %14s\n", "sample rate", "spans", "json bytes",
              "spans/s");
  const ExportCell exports[] = {measure_export(256), measure_export(1)};
  for (const auto& cell : exports) {
    std::printf("1/%-10llu %10llu %12zu %14.0f\n",
                static_cast<unsigned long long>(cell.denominator),
                static_cast<unsigned long long>(cell.spans), cell.json_bytes,
                cell.spans_per_sec);
    if (cell.spans == 0 || cell.json_bytes == 0) {
      std::fprintf(stderr, "export cell collected nothing\n");
      return 1;
    }
  }

  // Executor stage profiler: throughput cost on a stepped topology.
  const double prof_off = best_profiled(false);
  const double prof_on = best_profiled(true);
  const double prof_overhead = (prof_off - prof_on) / prof_off * 100.0;
  const bool prof_pass = prof_overhead <= 5.0;
  std::printf("\n== executor stage profiler ==\n");
  std::printf("profiler off: %.0f tuples/s\nprofiler on:  %.0f tuples/s\n",
              prof_off, prof_on);
  std::printf("overhead: %.2f%% (target <= 5%%): %s\n", prof_overhead,
              prof_pass ? "yes" : "NO");

  const bool pass = trace_pass && prof_pass;
  if (std::FILE* f = std::fopen("BENCH_trace.json", "w")) {
    std::fprintf(f, "{\n  \"packets_per_run\": %zu,\n  \"frame_bytes\": %zu,\n",
                 kPackets, kFrameSize);
    std::fprintf(f, "  \"sweep\": [\n");
    for (int i = 0; i < 5; ++i) {
      std::fprintf(f,
                   "    {\"denominator\": %llu, \"pkts_per_sec\": %.0f, "
                   "\"overhead_pct\": %.2f, \"spans\": %llu}%s\n",
                   static_cast<unsigned long long>(denominators[i]),
                   results[i].pkts_per_sec, overhead[i],
                   static_cast<unsigned long long>(results[i].spans),
                   i < 4 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"overhead_pct_at_256\": %.2f,\n", overhead[2]);
    std::fprintf(f, "  \"export\": [\n");
    for (std::size_t i = 0; i < 2; ++i) {
      std::fprintf(f,
                   "    {\"denominator\": %llu, \"spans\": %llu, "
                   "\"json_bytes\": %zu, \"spans_per_sec\": %.0f}%s\n",
                   static_cast<unsigned long long>(exports[i].denominator),
                   static_cast<unsigned long long>(exports[i].spans),
                   exports[i].json_bytes, exports[i].spans_per_sec,
                   i == 0 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"profiler\": {\n");
    std::fprintf(f,
                 "    \"tuples_per_sec_off\": %.0f,\n"
                 "    \"tuples_per_sec_on\": %.0f,\n"
                 "    \"overhead_pct\": %.2f,\n"
                 "    \"pass\": %s\n  },\n",
                 prof_off, prof_on, prof_overhead,
                 prof_pass ? "true" : "false");
    std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
  }
  return pass ? 0 : 1;
}
