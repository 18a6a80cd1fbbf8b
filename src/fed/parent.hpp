// The parent side of federation streaming (docs/FEDERATION.md): terminates
// every child's frame stream, deduplicates RECORDS by record offset against
// a per-child high watermark, max-merges METRICS into a fleet-prefixed
// registry ("fleet.child<i>.<series>"), and runs the global topology — a
// fan-in top-k over all children's result records — plus the fleet's
// historical store, so export_metrics()/query_range() see the whole fleet
// through the same read APIs a single engine offers.
//
// Memory: the parent keeps no record log. Each RECORDS frame is decoded
// once into reused scratch and its applied records' keys go straight into
// the fan-in; per child it keeps its frame parser, counters, watermark and
// fan-in key tallies.
//
// Totality: a frame that fails to parse or decode never escapes pump().
// The child that sent it is quarantined — its link dropped, nothing of the
// frame applied, `corrupt_frames` charged — and its reconnect plus WELCOME
// gap replication recover the stream.
//
// Determinism: pump() walks children in child-index order and applies each
// child's frames in arrival order (the Link preserves per-connection
// ordering), so parent state is a pure function of the per-child byte
// streams — byte-identical renders across runs and across child
// executor worker counts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "fed/link.hpp"
#include "fed/wire.hpp"
#include "obs/export.hpp"
#include "stream/fanin.hpp"
#include "tsdb/store.hpp"

namespace netalytics::fed {

struct ParentConfig {
  std::size_t children = 2;
  /// Global fan-in top-k size.
  std::size_t top_k = 10;
  /// Record-field index the fan-in counts keys from.
  std::size_t key_field = 0;
  /// Fleet metric history (per-pump captures of the fleet registry).
  tsdb::StoreConfig store{};
  /// Prometheus export options for the fleet exposition.
  obs::ExportOptions export_options{};
};

/// Parent-side per-child accounting. `applied` is the protocol high
/// watermark: records durably applied, in offset order, no gaps except
/// those charged to `lost_records` (child replay-buffer overflow).
struct ParentChildStats {
  bool connected = false;          // handshake completed, not departed
  std::string node_name;
  std::uint64_t applied = 0;       // record high watermark
  std::uint64_t duplicate_records = 0;  // replayed below the watermark
  std::uint64_t lost_records = 0;  // offset gaps (child replay overflow)
  std::uint64_t record_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t handshakes = 0;    // WELCOMEs sent
  std::uint64_t refused = 0;       // HELLOs rejected (magic/version/index)
  std::uint64_t byes = 0;
  /// Frames that failed to parse or decode; each quarantined the child
  /// (fleet counter "fleet.child<i>.fed.corrupt_frames").
  std::uint64_t corrupt_frames = 0;
};

class ParentNode {
 public:
  /// `links[i]` is child i's duplex link; all must outlive the node.
  ParentNode(std::vector<Link*> links, ParentConfig cfg);

  /// One fan-in round: for each child in index order, drain its link,
  /// apply complete frames (handshakes, metrics, records), and answer with
  /// WELCOME/ACK. Then capture the fleet registry into the store at `now`.
  void pump(common::Timestamp now);

  // ---- global result interface ----------------------------------------
  /// Global top-k over every child's applied records, merged in
  /// child-index order.
  std::string render_top_k() const { return fanin_.render(); }
  const stream::FanInTopK& top_k() const noexcept { return fanin_; }

  std::uint64_t total_records_applied() const noexcept;

  /// Prometheus text exposition of the fleet registry (fleet.child<i>.*
  /// series; the exporter lifts child<i> into a child="i" label).
  std::string export_metrics() const;
  /// Historical range query over the fleet store, merged with the live
  /// fleet registry head (same semantics as NetAlytics::query_range).
  tsdb::RangeResult query_range(const tsdb::RangeQuery& q) const;

  const common::MetricsRegistry& metrics() const noexcept { return registry_; }
  const tsdb::TieredStore& store() const noexcept { return store_; }
  const ParentChildStats& child_stats(std::size_t child) const {
    return slots_.at(child).stats;
  }
  const ParentConfig& config() const noexcept { return cfg_; }

 private:
  friend struct ParentOracle;  // tests/fed/parent_oracle.hpp

  struct Slot {
    Link* link = nullptr;
    FrameParser parser;
    std::uint64_t seen_connects = 0;  // link epoch; reset parser on change
    std::uint64_t last_acked = 0;     // watermark last sent in an ACK
    ParentChildStats stats;
  };

  /// One RECORDS batch decoded whole, before any of it is applied: every
  /// record's fields back to back. Reused across frames.
  class Rows final : public nf::BatchVisitor {
   public:
    void begin(std::size_t records) override;
    std::vector<nf::FieldValue>& record(std::string_view topic,
                                        std::uint64_t id,
                                        common::Timestamp timestamp,
                                        std::size_t field_count) override;
    void trace(std::size_t, std::uint64_t) override {}

    std::size_t size() const noexcept { return starts_.size(); }
    std::span<const nf::FieldValue> row(std::size_t i) const noexcept;

   private:
    std::vector<nf::FieldValue> fields_;
    std::vector<std::size_t> starts_;  // row i begins at fields_[starts_[i]]
  };

  void apply_frame(std::size_t child, const Frame& frame,
                   common::Timestamp now);
  void apply_records(std::size_t child, const RecordsView& rv);
  void apply_metrics(std::size_t child, const MetricsFrame& mf);
  /// Isolate a child whose stream carried a corrupt frame.
  void quarantine(std::size_t child);

  ParentConfig cfg_;
  std::vector<Slot> slots_;
  Rows rows_;
  std::string key_;  // a non-string key, formatted
  /// Test seam (ParentOracle): sees every applied record's fields.
  std::function<void(std::size_t child, std::span<const nf::FieldValue> row)>
      observer_;
  stream::FanInTopK fanin_;
  common::MetricsRegistry registry_;  // fleet.child<i>.* series
  tsdb::TieredStore store_;
  common::Timestamp now_ = 0;
};

}  // namespace netalytics::fed
