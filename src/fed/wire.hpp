// The federation wire protocol (docs/FEDERATION.md): the framed, versioned
// message format child engines use to stream records and metric snapshots
// to a parent, rrdpush-lineage. Every message travels as one length-prefixed
// frame over a byte stream:
//
//   [u32 payload_len (LE)] [u8 MsgType] [payload_len - 1 bytes of payload]
//
// The length prefix covers the type byte, so a FrameParser can reassemble
// frames from arbitrarily-fragmented byte input. Payload fields are
// little-endian via common::ByteWriter/ByteReader; RECORDS payloads embed
// an nf record batch (nf::BatchEncoder's layout), so trace ids ride the
// wire in the same compact trailer they use inside a monitor. RECORDS move
// bytes, not objects: RecordsEncoder writes result rows straight into the
// frame, and decode_records hands back a view of the batch for
// nf::read_batch.
//
// Exactness model: RECORDS frames are replicated by *record offset* (the
// 0-based index of a record in the child's result stream), not by frame
// identity — a replayed or re-framed stream with different batch boundaries
// still deduplicates exactly at the parent, which is what makes child
// restarts idempotent. METRICS frames carry absolute counter values (the
// parent derives per-tick deltas), so applying them is idempotent too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "nf/record.hpp"

namespace netalytics::fed {

/// Stream magic carried in HELLO ("NAFD" little-endian) — a connection that
/// opens with anything else is not a federation child.
inline constexpr std::uint32_t kMagic = 0x4446414Eu;

/// Protocol version negotiated at handshake. The parent refuses a HELLO
/// whose version it does not speak; the child must not stream after a
/// refused handshake (docs/FEDERATION.md, "Version rules").
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Upper bound on one frame's payload (type byte included). Larger length
/// prefixes mean a corrupt or hostile stream; FrameParser throws rather
/// than buffering unbounded garbage.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;

/// Message types, one per frame. tests/check_docs.sh (check 6) requires
/// every enumerator to be documented in docs/FEDERATION.md — keep one
/// enumerator per line so the check can extract them.
enum class MsgType : std::uint8_t {
  hello = 1,
  welcome = 2,
  metrics = 3,
  records = 4,
  ack = 5,
  bye = 6,
};

const char* to_string(MsgType t) noexcept;

/// Child -> parent, first frame after (re)connect. `next_offset` is the
/// record offset the child will resume from if the parent has no state
/// (a fresh parent answers with high_watermark = 0 and the child streams
/// from its replay buffer head).
struct Hello {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint32_t child_index = 0;
  std::uint64_t next_offset = 0;
  std::string node_name;

  bool operator==(const Hello&) const = default;
};

/// Parent -> child, handshake accept. `high_watermark` is the count of
/// records the parent has durably applied from this child; the child
/// replays everything at or beyond that offset (gap replication).
struct Welcome {
  std::uint16_t version = kProtocolVersion;
  std::uint32_t child_index = 0;
  std::uint64_t high_watermark = 0;

  bool operator==(const Welcome&) const = default;
};

/// One counter sample in a METRICS frame: absolute cumulative value. The
/// parent merges with max(), so duplicates and replays are idempotent.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;

  bool operator==(const CounterSample&) const = default;
};

/// One gauge sample: absolute level, last-writer-wins.
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;

  bool operator==(const GaugeSample&) const = default;
};

/// Child -> parent: the registry series that changed since the last send
/// (a delta *selection* carrying absolute values — see docs/FEDERATION.md,
/// "METRICS semantics"). `tick` timestamps the parent-side tsdb ingest.
struct MetricsFrame {
  common::Timestamp tick = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;

  bool operator==(const MetricsFrame&) const = default;
};

/// Child -> parent: a batch of result records, as decoded from a RECORDS
/// payload. `offset` is the 0-based index of the batch's first record in
/// the child's result stream; the parent applies the suffix beyond its
/// high watermark and discards the rest as duplicates, which makes replay
/// with different batch boundaries exact. `batch` borrows the payload's
/// record batch; nf::read_batch decodes it.
struct RecordsView {
  std::uint64_t offset = 0;
  common::Timestamp tick = 0;
  std::span<const std::byte> batch;
};

/// The RECORDS writer: frames result rows into RECORDS frames. Each row is
/// encoded as it is added, through one reused nf::BatchEncoder (topic
/// "fed", id 0, timestamp = the frame's tick; results are post-analytics
/// rows, not flow-keyed packets), and finish() writes the frame header
/// around the batch in one exactly-sized buffer.
class RecordsEncoder {
 public:
  RecordsEncoder();

  /// Start a frame (dropping any rows added before) whose first record
  /// has result offset `offset`.
  void begin(std::uint64_t offset, common::Timestamp tick);
  /// Append one row. `trace` nonzero rides the batch's trace trailer.
  void add(std::span<const nf::FieldValue> values, std::uint64_t trace);
  /// The complete frame around the rows added since begin().
  std::vector<std::byte> finish() const;

 private:
  nf::BatchEncoder batch_;
  std::vector<nf::FieldView> views_;  // one row's values, reused
  std::uint64_t offset_ = 0;
  common::Timestamp tick_ = 0;
};

/// Parent -> child: cumulative record high watermark. The child drops
/// replay-buffer entries wholly at or below the watermark.
struct Ack {
  std::uint32_t child_index = 0;
  std::uint64_t high_watermark = 0;

  bool operator==(const Ack&) const = default;
};

/// Child -> parent: clean shutdown after `final_offset` records. The
/// parent marks the child departed; a later HELLO re-admits it.
struct Bye {
  std::uint32_t child_index = 0;
  std::uint64_t final_offset = 0;

  bool operator==(const Bye&) const = default;
};

// ---- Encoding: one complete frame (length prefix + type + payload) ---------

std::vector<std::byte> encode(const Hello& m);
std::vector<std::byte> encode(const Welcome& m);
std::vector<std::byte> encode(const MetricsFrame& m);
std::vector<std::byte> encode(const Ack& m);
std::vector<std::byte> encode(const Bye& m);

// ---- Decoding: payload (without length prefix / type byte) -> message ------
// All throw std::out_of_range on truncated or malformed payloads, and only
// that: a receiver catches it to isolate the peer that sent the bytes.

Hello decode_hello(std::span<const std::byte> payload);
Welcome decode_welcome(std::span<const std::byte> payload);
MetricsFrame decode_metrics(std::span<const std::byte> payload);
/// The batch bytes are not decoded here (nf::read_batch does that); the
/// view is valid as long as `payload` is.
RecordsView decode_records(std::span<const std::byte> payload);
Ack decode_ack(std::span<const std::byte> payload);
Bye decode_bye(std::span<const std::byte> payload);

/// One reassembled frame: the type byte plus its payload bytes, borrowed
/// from the FrameParser's buffer — valid until its next feed() or reset().
struct Frame {
  MsgType type = MsgType::hello;
  std::span<const std::byte> payload;
};

/// Incremental frame reassembly over an arbitrarily-fragmented byte
/// stream: feed() appends whatever arrived, next() yields one complete
/// frame at a time (std::nullopt while incomplete) without copying its
/// payload. reset() discards any partial frame — called when the transport
/// drops, since a new connection restarts framing from a frame boundary.
class FrameParser {
 public:
  void feed(std::span<const std::byte> bytes);
  /// Throws std::out_of_range when the stream announces a payload larger
  /// than kMaxFramePayload or an unknown message type.
  std::optional<Frame> next();
  void reset() noexcept;

  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace netalytics::fed
