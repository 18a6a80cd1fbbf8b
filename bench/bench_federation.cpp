// Federation streaming bench (docs/FEDERATION.md): wire-level records/s
// per child while a parent terminates 1/2/4 concurrent child streams
// (frame encode -> link -> reassembly -> offset dedup -> fan-in), and the
// per-record overhead of the framed wire path against an in-process
// baseline that feeds the same records straight into the fan-in stage.
// The acceptance bar is correctness, not a rate: every streamed record
// must be applied exactly once at every fleet size.
//
// Results land in BENCH_fed.json in the working directory, under a
// provenance header (hardware threads, build type, source revision).
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fed/parent.hpp"
#include "fed/wire.hpp"
#include "stream/fanin.hpp"

#ifndef NETALYTICS_BUILD_TYPE
#define NETALYTICS_BUILD_TYPE "unknown"
#endif

using namespace netalytics;

namespace {

constexpr std::size_t kRecordsPerChild = 262'144;
constexpr std::size_t kRecordsPerFrame = 64;
constexpr std::size_t kFramesPerPump = 8;
constexpr std::size_t kKeyField = 3;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One http_get-shaped result row ({id, ts, kind, value}); 64 distinct keys.
std::vector<nf::FieldValue> make_row(std::uint64_t i) {
  return {nf::FieldValue{i}, nf::FieldValue{i * common::kMillisecond},
          nf::FieldValue{std::string{"GET"}},
          nf::FieldValue{"/url" + std::to_string(i % 64)}};
}

/// The rows of one frame: rows[j] is result j of every frame (the keys
/// repeat per frame, as a steady stream's would).
std::vector<std::vector<nf::FieldValue>> frame_rows() {
  std::vector<std::vector<nf::FieldValue>> rows;
  for (std::size_t j = 0; j < kRecordsPerFrame; ++j) rows.push_back(make_row(j));
  return rows;
}

/// The source revision the bench was run from ("unknown" outside git).
std::string revision() {
  std::array<char, 64> buf{};
  std::string out;
  if (std::FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    while (std::fgets(buf.data(), static_cast<int>(buf.size()), p) != nullptr) {
      out += buf.data();
    }
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// A parent over `n` connected links, past the handshake.
struct Fleet {
  std::vector<std::unique_ptr<fed::Link>> links;
  std::unique_ptr<fed::ParentNode> parent;

  explicit Fleet(std::size_t n) {
    std::vector<fed::Link*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      links.push_back(std::make_unique<fed::Link>(
          fed::LinkConfig{.child_index = static_cast<std::uint32_t>(i),
                          .fault_prefix = {}}));
      raw.push_back(links.back().get());
    }
    fed::ParentConfig cfg;
    cfg.children = n;
    cfg.top_k = 10;
    cfg.key_field = kKeyField;
    parent = std::make_unique<fed::ParentNode>(raw, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      links[i]->connect(0);
      links[i]->send_up(
          fed::encode(fed::Hello{.child_index = static_cast<std::uint32_t>(i),
                                 .node_name = "bench" + std::to_string(i)}),
          0);
    }
    pump(0);
  }

  void pump(common::Timestamp now) {
    parent->pump(now);
    for (auto& link : links) (void)link->drain_down();  // WELCOMEs, ACKs
  }
};

struct SweepResult {
  std::size_t children = 0;
  double seconds = 0;
  double records_per_sec = 0;        // fleet total
  double records_per_sec_child = 0;  // per child
  bool exact = false;
};

/// Stream kRecordsPerChild records from each of `n` children through real
/// links into one ParentNode, frames of kRecordsPerFrame, parent pumped
/// every kFramesPerPump frames per child (a settled streaming cadence).
SweepResult run_sweep(std::size_t n) {
  Fleet fleet(n);
  const auto rows = frame_rows();
  fed::RecordsEncoder encoder;

  common::Timestamp now = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> offsets(n, 0);
  std::size_t frames_since_pump = 0;
  for (std::size_t batch = 0; batch * kRecordsPerFrame < kRecordsPerChild;
       ++batch) {
    for (std::size_t i = 0; i < n; ++i) {
      encoder.begin(offsets[i], now);
      for (const auto& row : rows) encoder.add(row, 0);
      offsets[i] += kRecordsPerFrame;
      fleet.links[i]->send_up(encoder.finish(), now);
    }
    if (++frames_since_pump == kFramesPerPump) {
      frames_since_pump = 0;
      now += common::kMillisecond;
      fleet.pump(now);
    }
  }
  fleet.pump(now + common::kMillisecond);
  const double secs = seconds_since(t0);

  SweepResult res;
  res.children = n;
  res.seconds = secs;
  res.records_per_sec = static_cast<double>(kRecordsPerChild * n) / secs;
  res.records_per_sec_child = res.records_per_sec / static_cast<double>(n);
  res.exact = fleet.parent->total_records_applied() == kRecordsPerChild * n;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& st = fleet.parent->child_stats(i);
    if (st.applied != kRecordsPerChild || st.lost_records != 0 ||
        st.duplicate_records != 0) {
      res.exact = false;
    }
  }
  return res;
}

struct OverheadResult {
  double wire_ns = 0;       // encode + link + reassemble + decode + apply
  double inprocess_ns = 0;  // apply only (same records, no wire)
  double overhead_x = 0;
};

/// Per-record cost of the framed wire path (one child streaming into a
/// ParentNode, as in a fleet) vs feeding the fan-in stage directly — the
/// price of crossing a node boundary.
OverheadResult run_overhead() {
  constexpr std::size_t kRecords = 1u << 20;
  const auto rows = frame_rows();

  OverheadResult res;
  {
    Fleet fleet(1);
    fed::RecordsEncoder encoder;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t offset = 0;
    for (std::size_t f = 0; f * kRecordsPerFrame < kRecords; ++f) {
      encoder.begin(offset, 0);
      for (const auto& row : rows) encoder.add(row, 0);
      offset += kRecordsPerFrame;
      fleet.links[0]->send_up(encoder.finish(), 0);
      fleet.pump(0);
    }
    res.wire_ns = seconds_since(t0) / static_cast<double>(kRecords) * 1e9;
    if (fleet.parent->total_records_applied() != kRecords) res.wire_ns = -1;
  }
  {
    stream::FanInTopK fanin(1, 10);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t f = 0; f * kRecordsPerFrame < kRecords; ++f) {
      for (const auto& row : rows) {
        fanin.add(0, std::get<std::string>(row[kKeyField]), 1);
      }
    }
    res.inprocess_ns =
        seconds_since(t0) / static_cast<double>(kRecords) * 1e9;
  }
  res.overhead_x = res.wire_ns / res.inprocess_ns;
  return res;
}

}  // namespace

int main() {
  SweepResult sweep[3];
  const std::size_t sizes[3] = {1, 2, 4};
  bool pass = true;
  for (int i = 0; i < 3; ++i) {
    sweep[i] = run_sweep(sizes[i]);
    pass = pass && sweep[i].exact;
    std::printf(
        "fed stream: %zu child(ren), %.0f records/s fleet, %.0f records/s "
        "per child (%zu records each, %.2fs) exact=%s\n",
        sweep[i].children, sweep[i].records_per_sec,
        sweep[i].records_per_sec_child, kRecordsPerChild,
        sweep[i].seconds, sweep[i].exact ? "yes" : "NO");
  }
  const OverheadResult oh = run_overhead();
  pass = pass && oh.wire_ns > 0;
  std::printf(
      "fed wire path: %.0f ns/record vs %.0f ns/record in-process "
      "(%.2fx overhead)\n"
      "exact delivery at every fleet size: %s\n",
      oh.wire_ns, oh.inprocess_ns, oh.overhead_x, pass ? "pass" : "FAIL");

  if (std::FILE* f = std::fopen("BENCH_fed.json", "w")) {
    std::fprintf(f,
                 "{\n  \"provenance\": {\"hardware_threads\": %u, "
                 "\"build_type\": \"%s\", \"commit\": \"%s\"},\n",
                 std::thread::hardware_concurrency(), NETALYTICS_BUILD_TYPE,
                 revision().c_str());
    std::fprintf(f, "  \"records_per_child\": %zu,\n", kRecordsPerChild);
    std::fprintf(f, "  \"records_per_frame\": %zu,\n", kRecordsPerFrame);
    std::fprintf(f, "  \"sweep\": [\n");
    for (int i = 0; i < 3; ++i) {
      std::fprintf(f,
                   "    {\"children\": %zu, \"records_per_sec_fleet\": %.0f, "
                   "\"records_per_sec_per_child\": %.0f, \"exact\": %s}%s\n",
                   sweep[i].children, sweep[i].records_per_sec,
                   sweep[i].records_per_sec_child,
                   sweep[i].exact ? "true" : "false", i < 2 ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"wire_ns_per_record\": %.1f,\n"
                 "  \"inprocess_ns_per_record\": %.1f,\n"
                 "  \"wire_overhead_x\": %.2f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 oh.wire_ns, oh.inprocess_ns, oh.overhead_x,
                 pass ? "true" : "false");
    std::fclose(f);
  }
  return pass ? 0 : 1;
}
