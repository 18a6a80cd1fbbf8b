#include "nf/record.hpp"

#include <algorithm>
#include <cstring>

#include "common/byte_io.hpp"

namespace netalytics::nf {

namespace {

enum class FieldTag : std::uint8_t { i64 = 0, u64 = 1, f64 = 2, str = 3 };

// Batch layouts. Batches are built per topic by the output interface, so
// the common case hoists the topic string out of every record.
enum class BatchLayout : std::uint8_t { uniform_topic = 1, per_record_topic = 2 };

// Set on the layout byte when a trace trailer (count + [index, trace id]
// pairs for every traced record) follows the records. Untraced batches are
// byte-identical to the pre-trace format.
inline constexpr std::uint8_t kTraceTrailerFlag = 0x80;

// Smallest encodings, used to bound counts read from the input (and the
// fixed parts record_size adds up): a record is id + timestamp + field count
// (+ a topic length prefix when per-record); a field is its tag plus a
// u64/f64 or a string length prefix.
inline constexpr std::size_t kMinRecordBytes = 8 + 8 + 2;
inline constexpr std::size_t kMinTopicBytes = 4;
inline constexpr std::size_t kMinFieldBytes = 1 + 4;

// Stores into a buffer already sized for them, in ByteWriter's byte order
// (host order, i.e. the little-endian framing ByteReader reads back).
template <typename T>
std::byte* put(std::byte* p, T v) noexcept {
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

std::byte* put_str(std::byte* p, std::string_view s) noexcept {
  p = put(p, static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

std::size_t field_size(const FieldView& f) noexcept {
  const auto* s = std::get_if<std::string_view>(&f);
  return 1 + (s != nullptr ? 4 + s->size() : 8);
}

// Encoded size of a record body: id + timestamp + field count + fields, plus
// the topic when the batch layout is per-record.
std::size_t record_size(const RecordView& r, bool with_topic) noexcept {
  std::size_t n = kMinRecordBytes + (with_topic ? kMinTopicBytes + r.topic.size() : 0);
  for (const FieldView& f : r.fields) n += field_size(f);
  return n;
}

std::byte* put_field(std::byte* p, const FieldView& f) noexcept {
  return std::visit(
      [p](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          return put(put(p, FieldTag::i64), static_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
          return put(put(p, FieldTag::u64), v);
        } else if constexpr (std::is_same_v<T, double>) {
          return put(put(p, FieldTag::f64), v);
        } else {
          return put_str(put(p, FieldTag::str), v);
        }
      },
      f);
}

// A Record's fields as views, in `out` (reused across records).
std::span<const FieldView> view_fields(const Record& r, std::vector<FieldView>& out) {
  out.clear();
  for (const FieldValue& f : r.fields) out.push_back(view_of(f));
  return out;
}

void read_fields(common::ByteReader& r, std::size_t n,
                 std::vector<FieldValue>& fields) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (static_cast<FieldTag>(r.u8())) {
      case FieldTag::i64:
        fields.emplace_back(static_cast<std::int64_t>(r.u64()));
        break;
      case FieldTag::u64:
        fields.emplace_back(r.u64());
        break;
      case FieldTag::f64:
        fields.emplace_back(r.f64());
        break;
      case FieldTag::str:
        fields.emplace_back(r.str());
        break;
      default:
        throw std::out_of_range("Record: unknown field tag");
    }
  }
}

}  // namespace

FieldView view_of(const FieldValue& v) noexcept {
  return std::visit([](const auto& x) -> FieldView { return x; }, v);
}

Record to_record(const RecordView& v) {
  Record r;
  r.topic = v.topic;
  r.id = v.id;
  r.timestamp = v.timestamp;
  r.trace = v.trace;
  r.fields.reserve(v.fields.size());
  for (const FieldView& f : v.fields) {
    std::visit(
        [&r](const auto& x) {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, std::string_view>) {
            r.fields.emplace_back(std::string(x));
          } else {
            r.fields.emplace_back(x);
          }
        },
        f);
  }
  return r;
}

std::size_t serialized_size(const Record& r) {
  std::vector<FieldView> fields;
  return record_size({r.topic, r.id, r.timestamp, view_fields(r, fields), r.trace},
                     /*with_topic=*/true);
}

BatchEncoder::BatchEncoder(std::string_view topic) : uniform_(true) {
  bytes_.resize(1 + 4 + topic.size() + 4);
  put(put_str(put(bytes_.data(), BatchLayout::uniform_topic), topic),
      std::uint32_t{0});
  header_size_ = bytes_.size();
}

BatchEncoder::BatchEncoder() {
  bytes_.resize(1 + 4);
  put(put(bytes_.data(), BatchLayout::per_record_topic), std::uint32_t{0});
  header_size_ = bytes_.size();
}

void BatchEncoder::add(const RecordView& r) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + record_size(r, !uniform_));
  std::byte* p = bytes_.data() + at;
  if (!uniform_) p = put_str(p, r.topic);
  p = put(p, r.id);
  p = put(p, r.timestamp);
  p = put(p, static_cast<std::uint16_t>(r.fields.size()));
  for (const FieldView& f : r.fields) p = put_field(p, f);
  if (r.trace != 0) traces_.emplace_back(records_, r.trace);
  ++records_;
}

std::vector<std::byte> BatchEncoder::encode() const {
  std::vector<std::byte> out;
  out.reserve(encoded_size());  // exact: the broker retains it
  encode_to(out);
  return out;
}

std::size_t BatchEncoder::encoded_size() const noexcept {
  return bytes_.size() + (traces_.empty() ? 0 : 4 + traces_.size() * (4 + 8));
}

void BatchEncoder::encode_to(std::vector<std::byte>& out) const {
  const std::size_t at = out.size();
  out.insert(out.end(), bytes_.begin(), bytes_.end());
  out.resize(at + encoded_size());
  std::byte* payload = out.data() + at;
  put(payload + header_size_ - 4, records_);
  if (!traces_.empty()) {
    payload[0] |= std::byte{kTraceTrailerFlag};
    std::byte* p = put(payload + bytes_.size(),
                       static_cast<std::uint32_t>(traces_.size()));
    for (const auto& [index, trace] : traces_) p = put(put(p, index), trace);
  }
}

void BatchEncoder::clear() noexcept {
  bytes_.resize(header_size_);
  records_ = 0;
  traces_.clear();
}

std::vector<std::byte> serialize_batch(std::span<const Record> records) {
  const bool uniform =
      !records.empty() &&
      std::all_of(records.begin(), records.end(),
                  [&](const Record& r) { return r.topic == records[0].topic; });
  BatchEncoder batch = uniform ? BatchEncoder(records[0].topic) : BatchEncoder();
  std::vector<FieldView> fields;
  for (const Record& r : records) {
    batch.add({r.topic, r.id, r.timestamp, view_fields(r, fields), r.trace});
  }
  return batch.encode();
}

void read_batch(std::span<const std::byte> payload, BatchVisitor& visitor) {
  common::ByteReader r(payload);
  const std::uint8_t raw_layout = r.u8();
  const bool has_traces = (raw_layout & kTraceTrailerFlag) != 0;
  const auto layout = static_cast<BatchLayout>(raw_layout & ~kTraceTrailerFlag);
  if (layout != BatchLayout::uniform_topic &&
      layout != BatchLayout::per_record_topic) {
    throw std::out_of_range("Record batch: unknown layout");
  }
  const bool uniform = layout == BatchLayout::uniform_topic;
  const std::string_view shared_topic =
      uniform ? r.str_view() : std::string_view{};
  const std::size_t n =
      r.count(r.u32(), kMinRecordBytes + (uniform ? 0 : kMinTopicBytes));
  visitor.begin(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view topic = uniform ? shared_topic : r.str_view();
    const std::uint64_t id = r.u64();
    const common::Timestamp timestamp = r.u64();
    const std::size_t fields = r.count(r.u16(), kMinFieldBytes);
    read_fields(r, fields, visitor.record(topic, id, timestamp, fields));
  }
  if (has_traces) {
    const std::uint32_t traced = r.u32();
    for (std::uint32_t i = 0; i < traced; ++i) {
      const std::uint32_t index = r.u32();
      const std::uint64_t trace = r.u64();
      if (index >= n) {
        throw std::out_of_range("Record batch: trace index out of range");
      }
      visitor.trace(index, trace);
    }
  }
}

std::vector<Record> deserialize_batch(std::span<const std::byte> payload) {
  struct ToRecords final : BatchVisitor {
    std::vector<Record> out;
    void begin(std::size_t records) override { out.reserve(records); }
    std::vector<FieldValue>& record(std::string_view topic, std::uint64_t id,
                                    common::Timestamp timestamp,
                                    std::size_t field_count) override {
      Record& rec = out.emplace_back();
      rec.topic = topic;
      rec.id = id;
      rec.timestamp = timestamp;
      rec.fields.reserve(field_count);
      return rec.fields;
    }
    void trace(std::size_t index, std::uint64_t trace) override {
      out[index].trace = trace;
    }
  } records;
  read_batch(payload, records);
  return std::move(records.out);
}

}  // namespace netalytics::nf
