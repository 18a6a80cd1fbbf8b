// The data tuple a parser emits (§3.1). "The first element in each tuple is
// an ID field, usually calculated as a hash of the packet's n-tuple" — the
// ID lets processors join records produced by different parsers for the
// same flow. Records are batched and serialized before leaving the monitor,
// which is where the paper's ~10:1 data reduction versus raw packets comes
// from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/clock.hpp"

namespace netalytics::nf {

using FieldValue = std::variant<std::int64_t, std::uint64_t, double, std::string>;

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

/// Serialized size of one record (for data-reduction accounting).
std::size_t serialized_size(const Record& r);

/// Serialize a batch of records into one message payload.
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
