// The data tuple a parser emits (§3.1). "The first element in each tuple is
// an ID field, usually calculated as a hash of the packet's n-tuple" — the
// ID lets processors join records produced by different parsers for the
// same flow. Records are batched and serialized before leaving the monitor,
// which is where the paper's ~10:1 data reduction versus raw packets comes
// from.
//
// Two forms: parsers emit a borrowed RecordView, which the output interface
// encodes once, at emit, straight into the open batch (BatchEncoder — the
// format's one writer). Record is the owned, decoded form a batch reads back
// into (deserialize_batch, VectorSink).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::nf {

using FieldValue = std::variant<std::int64_t, std::uint64_t, double, std::string>;
/// A field as a parser emits it: strings borrow their bytes.
using FieldView = std::variant<std::int64_t, std::uint64_t, double, std::string_view>;

struct Record {
  std::string topic;  // parser name; selects the aggregation buffer (§3.2)
  std::uint64_t id = 0;
  common::Timestamp timestamp = 0;
  std::vector<FieldValue> fields;
  /// Provenance: nonzero when the packet this record came from was chosen
  /// by the trace sampler. Serialized batches carry traced records in a
  /// compact trailer, so the wire cost is zero when tracing is off.
  std::uint64_t trace = 0;

  bool operator==(const Record&) const = default;
};

/// A record whose topic, string fields and field list are borrowed — valid
/// for the emit call that receives it (see RecordSink in nf/parser.hpp).
struct RecordView {
  std::string_view topic;
  std::uint64_t id = 0;
  common::Timestamp timestamp = 0;
  std::span<const FieldView> fields;
  std::uint64_t trace = 0;  // as Record::trace
};

/// Borrow an owned field.
FieldView view_of(const FieldValue& v) noexcept;
/// Copy a borrowed record into an owned one.
Record to_record(const RecordView& v);

/// Serialized size of one record (for data-reduction accounting).
std::size_t serialized_size(const Record& r);

/// Builds one batch payload incrementally — the format's one writer. Each
/// add() encodes a record's body straight into the staging buffer, after the
/// batch header (layout byte, hoisted topic for uniform batches, record-count
/// placeholder); encode() finishes a copy. serialize_batch and the output
/// interface both build their payloads here.
class BatchEncoder {
 public:
  using TraceEntry = std::pair<std::uint32_t, std::uint64_t>;  // index, trace

  /// A uniform batch: every record carries `topic`, written once.
  explicit BatchEncoder(std::string_view topic);
  /// A per-record-topic batch.
  BatchEncoder();

  /// Append one record. A uniform batch ignores r.topic.
  void add(const RecordView& r);

  std::size_t size() const noexcept { return records_; }
  bool empty() const noexcept { return records_ == 0; }
  /// The traced records added so far, in order.
  std::span<const TraceEntry> traces() const noexcept { return traces_; }

  /// The finished payload in an exactly-sized buffer: record count patched
  /// in, trace trailer appended when any record is traced. The staging
  /// buffer is left as it was.
  std::vector<std::byte> encode() const;
  /// Size of the payload encode() returns.
  std::size_t encoded_size() const noexcept;
  /// Append the finished payload to `out`, so a caller can frame it without
  /// a second copy (the federation RECORDS writer).
  void encode_to(std::vector<std::byte>& out) const;

  /// Empty the batch for reuse; the staging buffer keeps its capacity.
  void clear() noexcept;

 private:
  std::vector<std::byte> bytes_;  // header + record bodies
  std::size_t header_size_ = 0;
  bool uniform_ = false;
  std::uint32_t records_ = 0;
  std::vector<TraceEntry> traces_;
};

/// Serialize a batch of records into one message payload (a BatchEncoder
/// fed every record; uniform layout when all share one topic).
std::vector<std::byte> serialize_batch(std::span<const Record> records);

/// Receives a batch from read_batch record by record, so a consumer can
/// decode straight into its own representation (the stream parsing bolt
/// builds tuples) without an intermediate Record per entry.
class BatchVisitor {
 public:
  virtual ~BatchVisitor() = default;
  /// The batch holds `records` records (bounded by the payload size).
  virtual void begin(std::size_t records) = 0;
  /// One record header. `topic` is valid for this call only. Returns the
  /// vector the record's `field_count` fields are appended to, in order,
  /// before the next call.
  virtual std::vector<FieldValue>& record(std::string_view topic, std::uint64_t id,
                                          common::Timestamp timestamp,
                                          std::size_t field_count) = 0;
  /// A trace-trailer entry, after every record: record `index` (checked to
  /// be in range) carries `trace`.
  virtual void trace(std::size_t index, std::uint64_t trace) = 0;
};

/// Decode a serialize_batch payload into `visitor` — the one batch decoder.
/// Throws std::out_of_range on corrupt input, possibly after the visitor
/// has seen some records.
void read_batch(std::span<const std::byte> payload, BatchVisitor& visitor);

/// Inverse of serialize_batch (read_batch into Records). Throws
/// std::out_of_range on corrupt input.
std::vector<Record> deserialize_batch(std::span<const std::byte> payload);

// Typed field access helpers; throw std::bad_variant_access on mismatch.
inline std::int64_t as_i64(const FieldValue& v) { return std::get<std::int64_t>(v); }
inline std::uint64_t as_u64(const FieldValue& v) { return std::get<std::uint64_t>(v); }
inline double as_f64(const FieldValue& v) { return std::get<double>(v); }
inline const std::string& as_str(const FieldValue& v) { return std::get<std::string>(v); }

}  // namespace netalytics::nf
