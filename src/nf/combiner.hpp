// Monitor-side pushdown (§3.1: the monitors exist to cut data before it
// reaches the aggregation layer). A Combiner sits between a parser worker
// and its output interface: it applies the query's pushed filter, folds
// each surviving record into a per-key partial aggregate, and at the
// monitor's tick ships one partial record per key instead of one record
// per packet. The stream side merges partials with the same bolts that
// would have folded the raw records (CountingBolt, GroupAggBolt).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "nf/parser.hpp"

namespace netalytics::nf {

inline constexpr std::size_t kNoField = std::numeric_limits<std::size_t>::max();

/// What a query pushes into the monitor for one parser's records. Field
/// indices address the record schema [id, ts, fields...]: 0 is the record
/// id, 1 its timestamp, 2 + i RecordView::fields[i].
struct CombinerSpec {
  std::string parser;  // whose records are folded
  std::string topic;   // query-owned topic the partials ship to
  std::vector<std::size_t> key_fields;
  /// Numeric field folded into sum/min/max; kNoField = count only.
  std::size_t value_field = kNoField;
  /// Pushed predicate: keep a record only when this field is the string
  /// `filter_equals`. kNoField = keep everything.
  std::size_t filter_field = kNoField;
  std::string filter_equals;

  bool has_value() const noexcept { return value_field != kNoField; }
};

/// A partial record's fields: the key fields, then count:u64, then (with
/// a value field) sum:f64, min:f64, max:f64. Its timestamp is the newest
/// contributor's and its trace the max contributor trace id — the rule the
/// merging bolts already apply, so rankings and group rows keep the trace
/// ids the unpushed plan gives them.
class Combiner final : public RecordSink {
 public:
  /// Partials go to `out`; every record (filtered or not) is passed on to
  /// `next` when set (another combiner, or the raw output).
  Combiner(CombinerSpec spec, RecordSink& out, RecordSink* next = nullptr);

  /// Filter, then fold. Throws std::invalid_argument when the value field
  /// holds a string, std::out_of_range when the record lacks a field.
  void emit(const RecordView& record) override;

  /// Emit one partial per key, in key order, and clear. Returns the number
  /// of partials emitted.
  std::size_t flush(common::Timestamp now);

  /// Registry counters for folded and filtered records (null = skip).
  void bind_counters(common::Counter* folded, common::Counter* filtered) noexcept {
    folded_ctr_ = folded;
    filtered_ctr_ = filtered;
  }

  /// Provenance of subsequently emitted records when their view carries
  /// none (as OutputInterface::set_current_trace).
  void set_current_trace(std::uint64_t trace) noexcept { current_trace_ = trace; }

  /// Records handed to emit() so far (the parser-side record count).
  std::uint64_t received() const noexcept { return received_; }

 private:
  struct Partial {
    std::uint64_t hash = 0;  // of the key fields
    std::vector<FieldValue> key;
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    common::Timestamp timestamp = 0;
    std::uint64_t trace = 0;
  };
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  void fold(const RecordView& record);
  void grow_index();

  CombinerSpec spec_;
  RecordSink& out_;
  RecordSink* next_;
  // This tick's partials in arrival order, found through an open-addressing
  // index of their positions (linear probing, power-of-two size).
  std::vector<Partial> partials_;
  std::vector<std::uint32_t> index_;
  std::vector<FieldView> key_scratch_;     // the folded record's key fields
  std::vector<std::uint32_t> order_;       // key order at flush
  std::vector<FieldView> fields_scratch_;  // one partial's fields at flush
  std::uint64_t received_ = 0;
  std::uint64_t current_trace_ = 0;
  common::Counter* folded_ctr_ = nullptr;
  common::Counter* filtered_ctr_ = nullptr;
};

}  // namespace netalytics::nf
