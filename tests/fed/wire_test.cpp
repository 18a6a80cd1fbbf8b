// Wire-format unit tests (docs/FEDERATION.md): every message type round-
// trips through encode/decode, RECORDS frames match protocol v1's golden
// bytes, the FrameParser reassembles frames from arbitrary fragmentation,
// and corrupt streams (oversized length prefix, unknown type byte,
// truncated payload) throw instead of desynchronizing.
#include "fed/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "records_goldens.hpp"

namespace netalytics::fed {
namespace {

/// A frame with its payload copied out of the parser.
struct OwnedFrame {
  MsgType type = MsgType::hello;
  std::vector<std::byte> payload;
};

OwnedFrame own(const Frame& f) {
  return {f.type, {f.payload.begin(), f.payload.end()}};
}

/// Parse exactly one frame out of a complete encoded frame.
OwnedFrame parse_one(const std::vector<std::byte>& bytes) {
  FrameParser p;
  p.feed(bytes);
  auto f = p.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(p.buffered(), 0u);
  return f ? own(*f) : OwnedFrame{};
}

/// Frame a golden's rows the way a child does.
std::vector<std::byte> encode_rows(const goldens::RecordsGolden& g) {
  RecordsEncoder enc;
  enc.begin(g.offset, g.tick);
  for (const auto& row : g.rows) enc.add(row.values, row.trace);
  return enc.finish();
}

TEST(FedWire, HelloRoundTrip) {
  const Hello in{.magic = kMagic,
                 .version = kProtocolVersion,
                 .child_index = 3,
                 .next_offset = 12345,
                 .node_name = "child3"};
  const OwnedFrame f = parse_one(encode(in));
  EXPECT_EQ(f.type, MsgType::hello);
  EXPECT_EQ(decode_hello(f.payload), in);
}

TEST(FedWire, WelcomeAckByeRoundTrip) {
  const Welcome w{.version = kProtocolVersion,
                  .child_index = 1,
                  .high_watermark = 999};
  OwnedFrame f = parse_one(encode(w));
  EXPECT_EQ(f.type, MsgType::welcome);
  EXPECT_EQ(decode_welcome(f.payload), w);

  const Ack a{.child_index = 2, .high_watermark = 77};
  f = parse_one(encode(a));
  EXPECT_EQ(f.type, MsgType::ack);
  EXPECT_EQ(decode_ack(f.payload), a);

  const Bye b{.child_index = 0, .final_offset = 42};
  f = parse_one(encode(b));
  EXPECT_EQ(f.type, MsgType::bye);
  EXPECT_EQ(decode_bye(f.payload), b);
}

TEST(FedWire, MetricsRoundTripCarriesAbsoluteValues) {
  MetricsFrame in;
  in.tick = 5 * common::kSecond;
  in.counters.push_back({"q1.mon0.rx_packets", 1000});
  in.counters.push_back({"engine.pumps", 7});
  in.gauges.push_back({"mq.broker0.depth", -3});
  const OwnedFrame f = parse_one(encode(in));
  EXPECT_EQ(f.type, MsgType::metrics);
  EXPECT_EQ(decode_metrics(f.payload), in);
}

TEST(FedWire, RecordsRoundTripPreservesFieldsAndTraceIds) {
  const auto g = goldens::traced_records();
  const OwnedFrame f = parse_one(encode_rows(g));
  EXPECT_EQ(f.type, MsgType::records);
  const RecordsView out = decode_records(f.payload);
  EXPECT_EQ(out.offset, g.offset);
  EXPECT_EQ(out.tick, g.tick);
  const auto records = nf::deserialize_batch(out.batch);
  ASSERT_EQ(records.size(), g.rows.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].topic, "fed");
    EXPECT_EQ(records[i].id, 0u);
    EXPECT_EQ(records[i].timestamp, g.tick);  // rows carry the frame tick
    EXPECT_EQ(records[i].fields, g.rows[i].values) << "row " << i;
    EXPECT_EQ(records[i].trace, g.rows[i].trace) << "row " << i;
  }
  EXPECT_EQ(records[1].trace, 0xdeadbeefcafef00du);  // trace trailer survived
}

// Protocol v1 pinned: the child's framing writes exactly the golden bytes
// (recorded from the owned-record encoder this writer replaced).
TEST(FedWire, RecordsFramesMatchProtocolV1Goldens) {
  for (const auto& g : goldens::records_goldens()) {
    EXPECT_EQ(encode_rows(g), g.frame) << "offset " << g.offset;
  }
}

TEST(FedWire, RecordsEncoderIsReusableAcrossFrames) {
  const auto goldens = goldens::records_goldens();
  RecordsEncoder enc;
  for (int round = 0; round < 2; ++round) {
    for (const auto& g : goldens) {
      enc.begin(g.offset, g.tick);
      for (const auto& row : g.rows) enc.add(row.values, row.trace);
      EXPECT_EQ(enc.finish(), g.frame);
    }
  }
}

TEST(FedWire, TruncatedRecordsPayloadThrows) {
  const OwnedFrame f = parse_one(goldens::traced_records().frame);
  // Cut inside the header, and inside the batch its length announces.
  for (const std::size_t keep : {std::size_t{12}, f.payload.size() - 1}) {
    const std::span<const std::byte> cut(f.payload.data(), keep);
    EXPECT_THROW(decode_records(cut), std::out_of_range) << keep;
  }
}

TEST(FedWire, ParserReassemblesFromSingleByteFeeds) {
  std::vector<std::byte> stream;
  const auto h = encode(Hello{.child_index = 1, .node_name = "c"});
  const auto a = encode(Ack{.child_index = 1, .high_watermark = 10});
  stream.insert(stream.end(), h.begin(), h.end());
  stream.insert(stream.end(), a.begin(), a.end());

  FrameParser p;
  std::vector<OwnedFrame> frames;
  for (const std::byte b : stream) {
    p.feed(std::span<const std::byte>(&b, 1));
    while (auto f = p.next()) frames.push_back(own(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::hello);
  EXPECT_EQ(frames[1].type, MsgType::ack);
  EXPECT_EQ(decode_ack(frames[1].payload).high_watermark, 10u);
}

TEST(FedWire, ParserRejectsOversizedAndUnknownFrames) {
  // Length prefix beyond kMaxFramePayload: corrupt or hostile stream.
  std::vector<std::byte> oversized(5);
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(oversized.data(), &huge, 4);  // little-endian test hosts
  oversized[4] = std::byte{1};
  FrameParser p;
  p.feed(oversized);
  EXPECT_THROW(p.next(), std::out_of_range);

  // Unknown type byte.
  std::vector<std::byte> unknown(5);
  const std::uint32_t one = 1;
  std::memcpy(unknown.data(), &one, 4);
  unknown[4] = std::byte{99};
  FrameParser q;
  q.feed(unknown);
  EXPECT_THROW(q.next(), std::out_of_range);

  // A zero-length frame (no type byte) is equally invalid.
  std::vector<std::byte> empty(4, std::byte{0});
  FrameParser r;
  r.feed(empty);
  EXPECT_THROW(r.next(), std::out_of_range);
}

TEST(FedWire, TruncatedPayloadThrowsFromDecoders) {
  const auto full = encode(Welcome{.child_index = 1, .high_watermark = 5});
  const OwnedFrame f = parse_one(full);
  const std::span<const std::byte> cut(f.payload.data(),
                                       f.payload.size() / 2);
  EXPECT_THROW(decode_welcome(cut), std::out_of_range);
}

// Golden regressions: a METRICS payload that claims 2^32-1 samples in a few
// bytes throws the documented out_of_range instead of reserving for them.
TEST(FedWire, HugeCounterCountThrows) {
  std::vector<std::byte> payload(8);  // tick 0
  for (int i = 0; i < 4; ++i) payload.push_back(std::byte{0xff});
  payload.resize(payload.size() + 12);  // room for one sample, not 2^32-1
  EXPECT_THROW(decode_metrics(payload), std::out_of_range);
}

TEST(FedWire, HugeGaugeCountThrows) {
  std::vector<std::byte> payload(8 + 4);  // tick 0, zero counters
  for (int i = 0; i < 4; ++i) payload.push_back(std::byte{0xff});
  EXPECT_THROW(decode_metrics(payload), std::out_of_range);
}

TEST(FedWire, ParserResetDiscardsPartialFrame) {
  const auto h = encode(Hello{.node_name = "x"});
  FrameParser p;
  p.feed(std::span<const std::byte>(h.data(), h.size() - 2));  // partial
  EXPECT_FALSE(p.next().has_value());
  p.reset();  // connection dropped; next connection starts at a boundary
  EXPECT_EQ(p.buffered(), 0u);
  const auto a = encode(Ack{.high_watermark = 1});
  p.feed(a);
  auto f = p.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::ack);
}

TEST(FedWire, MsgTypeNames) {
  EXPECT_STREQ(to_string(MsgType::hello), "HELLO");
  EXPECT_STREQ(to_string(MsgType::welcome), "WELCOME");
  EXPECT_STREQ(to_string(MsgType::metrics), "METRICS");
  EXPECT_STREQ(to_string(MsgType::records), "RECORDS");
  EXPECT_STREQ(to_string(MsgType::ack), "ACK");
  EXPECT_STREQ(to_string(MsgType::bye), "BYE");
}

}  // namespace
}  // namespace netalytics::fed
