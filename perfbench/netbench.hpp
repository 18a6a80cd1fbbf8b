// Shared declarations of the end-to-end benchmark (README.md in this
// directory has the metric definitions and why each workload exists).
//
// One episode = one freshly built system (fabric + engine or federation,
// plus every submit) driven through a fixed number of one-second ticks of
// traffic that depends only on the seed. A run repeats episodes until its
// time budget is spent, so every episode sees identical inputs and must
// produce identical counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/trace.hpp"
#include "core/emulation.hpp"
#include "core/netalytics.hpp"

namespace netbench {

using namespace netalytics;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Last dot-separated segment of a metric name.
inline std::string_view leaf(std::string_view name) {
  const auto dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

/// Drop-ledger causes that count as failed operations, by layer. Sampling
/// and parse-without-output are by design and do not count.
inline constexpr common::DropCause kNfFailureCauses[] = {
    common::DropCause::ingest_ring_overflow,
    common::DropCause::ingest_decode_error,
    common::DropCause::parse_worker_overflow, common::DropCause::parse_error};
inline constexpr common::DropCause kMqFailureCauses[] = {
    common::DropCause::produce_buffer_overflow,
    common::DropCause::produce_retries_exhausted};

/// Sum of `ledger`'s counts over `causes`.
std::uint64_t ledger_failures(const common::DropLedger& ledger,
                              std::span<const common::DropCause> causes);

/// One pass of a fixed, self-contained piece of work (hash-table updates
/// over a few MB, frame-sized copies, string-keyed map inserts) that uses
/// none of the library, in milliseconds. Timed next to every tick, it
/// tracks the shared host's speed; kProbeRefMs is its median on the
/// reference host (README.md, "Host speed").
double host_probe_ms();
inline constexpr double kProbeRefMs = 1.8;

/// A wall-clock interval: when a call started and how long it took.
struct Timed {
  Clock::time_point start;
  double ms = 0;
};

/// One tick of traffic, packed into one buffer.
struct Frames {
  std::vector<std::byte> bytes;
  std::vector<std::size_t> ends;        // end offset of frame i in bytes
  std::vector<common::Timestamp> ts;    // virtual send time of frame i
  std::vector<std::uint8_t> target;     // emulation (fleet child) of frame i

  std::size_t size() const noexcept { return ends.size(); }
  std::span<const std::byte> frame(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {bytes.data() + begin, ends[i] - begin};
  }
  void clear() {
    bytes.clear();
    ends.clear();
    ts.clear();
    target.clear();
  }
  void add(std::span<const std::byte> f, common::Timestamp t, std::uint8_t to) {
    bytes.insert(bytes.end(), f.begin(), f.end());
    ends.push_back(bytes.size());
    ts.push_back(t);
    target.push_back(to);
  }
};

/// Wall times of one dashboard refresh, by call.
struct ScrapeTimes {
  double mon_range_ms = 0;   // query_range over the monitor counters
  double p99_range_ms = 0;   // p99 query_range over the stage histograms
  double export_ms = 0;      // export_metrics()
  std::size_t export_bytes = 0;
};

/// Counts one episode must reproduce exactly for a given seed (the
/// determinism self-test compares these; only timings may differ). The
/// traced run's per-layer counts and ratios are computed from these.
struct Counts {
  std::uint64_t frames = 0;             // transmitted
  std::uint64_t switch_rx = 0;          // Σ ToR rx_packets
  std::uint64_t mirrored = 0;           // Σ monitor rx_packets
  std::uint64_t parsed = 0;             // Σ monitor parsed
  std::uint64_t parse_with_output = 0;  // Σ monitor parse_with_output
  std::uint64_t records = 0;            // Σ monitor records
  std::uint64_t record_bytes = 0;       // Σ monitor record_bytes
  std::uint64_t results = 0;            // result tuples (all engines)
  std::uint64_t rules = 0;              // largest ToR flow table
  std::uint64_t series = 0;             // tsdb series (all stores)
  std::uint64_t produced_messages = 0;  // broker
  std::uint64_t produced_records = 0;   // broker
  std::uint64_t consumed_records = 0;   // broker
  std::uint64_t tuples = 0;        // executor profiler Σ tuples (traced only)
  std::uint64_t wire_bytes = 0;    // child -> parent link bytes (fleet)
  std::uint64_t applied = 0;       // records applied at the parent (fleet)
  std::uint64_t duplicates = 0;    // duplicate records at the parent (fleet)
  std::uint64_t export_bytes = 0;  // last exposition (untraced only)
  std::uint64_t failed = 0;        // failed operations
  std::uint64_t attempted = 0;     // attempted operations

  bool operator==(const Counts&) const = default;
  std::string render() const;
};

/// The failures one episode's checks found, by kind.
struct Failures {
  std::map<std::string, std::uint64_t> by_kind;  // kind -> count
  std::uint64_t attempted = 0;
  std::vector<std::string> notes;  // first few human-readable mismatches

  void fail(const std::string& kind, std::uint64_t n, std::string note = {});
  std::uint64_t total() const;
};

/// A live system for one episode. Subclasses own the fabric and engine(s).
class Episode {
 public:
  virtual ~Episode() = default;

  /// Emulation a frame with `target` is sent into.
  virtual core::Emulation& emulation(std::size_t target) = 0;
  /// The tick pump that makes the interval's results visible.
  virtual void pump(common::Timestamp now) = 0;
  /// Traced variant of pump(): the same calls, with a wall time per step
  /// appended to `step_ms` (one entry for an engine, four for a fleet).
  virtual void pump_steps(common::Timestamp now, std::vector<double>& step_ms) = 0;
  /// One dashboard refresh. Returns false when its check fails;
  /// `mirrored` is the number of frames the monitors must have seen.
  virtual bool scrape(common::Timestamp now, std::uint64_t mirrored,
                      ScrapeTimes& times) = 0;
  /// End-of-episode checks against the traffic reference.
  virtual void check(common::Timestamp now, Failures& out) = 0;
  /// Counts of the live system (frames and export_bytes are the runner's).
  virtual Counts counts() = 0;

  /// The engines of this episode (one, or one per fleet child).
  virtual std::vector<core::NetAlytics*> engines() = 0;
};

/// Seeded traffic plus the reference the checks compare against.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Frames of tick `tick` (virtual second [tick, tick+1)); also folds
  /// them into the reference.
  virtual void make_tick(std::size_t tick, Frames& out) = 0;
};

/// A workload: its shape and factories.
struct Workload {
  std::string name;
  std::size_t frames_per_tick = 0;
  std::size_t ticks = 0;         // per episode
  std::size_t setup_reps = 0;    // repeated set-ups timed per episode
  std::vector<std::string> parsers;  // the queries' parsers (nf replay)
  std::unique_ptr<Traffic> (*make_traffic)(std::uint64_t seed) = nullptr;
  /// Build and submit: the timed set-up. `submits` receives one interval
  /// per submit; `traffic` is the reference the checks will use.
  std::unique_ptr<Episode> (*make_episode)(const Traffic& traffic,
                                           bool profile,
                                           std::vector<Timed>& submits) = nullptr;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Per-layer replay measurements for the traced run (layers.cpp).
struct LayerInputs {
  const Workload* workload = nullptr;
  Episode* episode = nullptr;
  const Frames* frames = nullptr;      // one tick of the run's own traffic
  const Counts* counts = nullptr;      // the episode's counts
  const Failures* failures = nullptr;  // the episode's failures, by kind
};
struct LayerReplay {
  std::map<std::string, double> metrics;  // by layer_metric_units() name
  double replay_ms_per_tick = 0;  // replayed cost of one tick, all layers
};
LayerReplay replay_layers(const LayerInputs& in);
/// (name, unit) of every metric replay_layers() reports.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace netbench
