#include "sdn/switch.hpp"

#include <gtest/gtest.h>

#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"

namespace netalytics::sdn {
namespace {

std::vector<std::byte> frame_to_port(net::Port dst_port) {
  pktgen::TcpFrameSpec spec;
  spec.flow = {net::make_ipv4(10, 0, 0, 1), net::make_ipv4(10, 0, 0, 2), 1234,
               dst_port, 6};
  spec.pad_to_frame_size = 128;
  return pktgen::build_tcp_frame(spec);
}

struct PortCapture {
  int count = 0;
  std::size_t bytes = 0;
  PortSink sink() {
    return [this](const net::DecodedPacket& pkt) {
      ++count;
      bytes += pkt.frame.size();
    };
  }
};

FlowMod mirror_mod(net::Port dst_port, std::uint32_t out, std::uint32_t mirror) {
  FlowMod mod;
  mod.rule.priority = 10;
  mod.rule.match.dst_port = dst_port;
  mod.rule.actions = {OutputAction{out}, MirrorAction{mirror}};
  return mod;
}

TEST(SdnSwitch, ForwardsOnMatch) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  FlowMod mod;
  mod.rule.actions = {OutputAction{0}};  // wildcard
  sw.apply(mod, 0);
  sw.handle_packet(5, frame_to_port(80), 0);
  EXPECT_EQ(out.count, 1);
  EXPECT_EQ(sw.stats().matched, 1u);
  EXPECT_EQ(sw.stats().forwarded, 1u);
}

TEST(SdnSwitch, MirrorDeliversCopyToBothPorts) {
  SdnSwitch sw(1);
  PortCapture normal, monitor;
  sw.connect_port(0, normal.sink());
  sw.connect_port(7, monitor.sink());
  sw.apply(mirror_mod(80, 0, 7), 0);

  sw.handle_packet(1, frame_to_port(80), 0);
  EXPECT_EQ(normal.count, 1);
  EXPECT_EQ(monitor.count, 1);
  EXPECT_EQ(monitor.bytes, 128u);
  EXPECT_EQ(sw.stats().mirrored, 1u);
  EXPECT_EQ(sw.stats().mirrored_bytes, 128u);
}

TEST(SdnSwitch, MissingMonitorPortDoesNotBreakDelivery) {
  SdnSwitch sw(1);
  PortCapture normal;
  sw.connect_port(0, normal.sink());
  sw.apply(mirror_mod(80, 0, 99), 0);  // port 99 unattached
  sw.handle_packet(1, frame_to_port(80), 0);
  EXPECT_EQ(normal.count, 1);  // normal path unaffected
  EXPECT_EQ(sw.stats().mirrored, 0u);
}

TEST(SdnSwitch, MissWithoutHandlerDrops) {
  SdnSwitch sw(1);
  sw.handle_packet(1, frame_to_port(80), 0);
  EXPECT_EQ(sw.stats().missed, 1u);
  EXPECT_EQ(sw.stats().dropped, 1u);
}

class InstallOnMissHandler final : public PacketInHandler {
 public:
  explicit InstallOnMissHandler(SdnSwitch& sw) : sw_(sw) {}
  ActionList on_packet_in(const PacketIn& event) override {
    ++events;
    // Reactive: install a rule for this destination port, then forward.
    FlowMod mod;
    mod.rule.priority = 5;
    mod.rule.match.dst_port = event.packet.five_tuple.dst_port;
    mod.rule.actions = {OutputAction{0}};
    sw_.apply(mod, event.timestamp);
    return {OutputAction{0}};
  }
  int events = 0;

 private:
  SdnSwitch& sw_;
};

TEST(SdnSwitch, ReactivePathInstallsRuleOnFirstPacket) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  InstallOnMissHandler handler(sw);
  sw.set_packet_in_handler(&handler);

  sw.handle_packet(1, frame_to_port(80), 0);  // miss -> controller
  sw.handle_packet(1, frame_to_port(80), 1);  // hit the installed rule
  EXPECT_EQ(handler.events, 1);
  EXPECT_EQ(out.count, 2);
  EXPECT_EQ(sw.stats().missed, 1u);
  EXPECT_EQ(sw.stats().matched, 1u);
}

TEST(SdnSwitch, DropActionCounts) {
  SdnSwitch sw(1);
  FlowMod mod;
  mod.rule.actions = {DropAction{}};
  sw.apply(mod, 0);
  sw.handle_packet(1, frame_to_port(80), 0);
  EXPECT_EQ(sw.stats().dropped, 1u);
}

TEST(SdnSwitch, RuleStatsAccumulate) {
  SdnSwitch sw(1);
  PortCapture out;
  sw.connect_port(0, out.sink());
  FlowMod mod;
  mod.rule.actions = {OutputAction{0}};
  const auto cookie = sw.apply(mod, 0);
  ASSERT_TRUE(cookie.has_value());
  for (int i = 0; i < 3; ++i) sw.handle_packet(1, frame_to_port(80), i);
  EXPECT_EQ(sw.table().rules()[0].packet_count, 3u);
  EXPECT_EQ(sw.table().rules()[0].byte_count, 3u * 128u);
}

TEST(SdnSwitch, MalformedFrameDropped) {
  SdnSwitch sw(1);
  std::vector<std::byte> junk(5);
  sw.handle_packet(0, junk, 0);
  EXPECT_EQ(sw.stats().dropped, 1u);
  EXPECT_EQ(sw.stats().rx_packets, 1u);
}

TEST(SdnSwitch, DecodedEntryHandsOnTheSamePacket) {
  SdnSwitch sw(1);
  std::vector<net::DecodedPacket> seen;
  sw.connect_port(0, [&seen](const net::DecodedPacket& p) { seen.push_back(p); });
  sw.connect_port(7, [&seen](const net::DecodedPacket& p) { seen.push_back(p); });
  sw.apply(mirror_mod(80, 0, 7), 0);

  const auto frame = frame_to_port(80);
  auto pkt = net::decode_packet(frame);
  ASSERT_TRUE(pkt.has_value());
  pkt->timestamp = 99;
  sw.handle_packet(1, *pkt);
  ASSERT_EQ(seen.size(), 2u);  // delivery port and mirror port
  for (const auto& p : seen) {
    EXPECT_EQ(p.frame.data(), frame.data());  // no copy
    EXPECT_EQ(p.timestamp, 99u);
  }
}

TEST(SdnSwitch, SpanEntryStampsTimestampWithoutCopying) {
  SdnSwitch sw(1);
  std::vector<net::DecodedPacket> seen;
  sw.connect_port(7, [&seen](const net::DecodedPacket& p) { seen.push_back(p); });
  sw.connect_port(0, [](const net::DecodedPacket&) {});
  sw.apply(mirror_mod(80, 0, 7), 0);

  const auto frame = frame_to_port(80);
  sw.handle_packet(1, frame, 1234);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].frame.data(), frame.data());
  EXPECT_EQ(seen[0].timestamp, 1234u);
  EXPECT_EQ(seen[0].five_tuple.dst_port, 80);
}

TEST(SdnSwitch, MalformedFrameNeverReachesASink) {
  SdnSwitch sw(1);
  PortCapture out, monitor;
  sw.connect_port(0, out.sink());
  sw.connect_port(7, monitor.sink());
  FlowMod mod;
  mod.rule.actions = {OutputAction{0}, MirrorAction{7}};  // wildcard
  sw.apply(mod, 0);

  std::vector<std::byte> junk(5);
  sw.handle_packet(1, junk, 0);
  EXPECT_EQ(sw.stats().rx_packets, 1u);
  EXPECT_EQ(sw.stats().dropped, 1u);
  EXPECT_EQ(sw.stats().matched, 0u);
  EXPECT_EQ(out.count, 0);
  EXPECT_EQ(monitor.count, 0);
  EXPECT_EQ(sw.table().rules()[0].packet_count, 0u);
}

TEST(SdnSwitch, DecodedAndSpanEntriesCountAlikeOverAMix) {
  SdnSwitch by_span(1), by_decoded(2);
  PortCapture span_out, span_mon, dec_out, dec_mon;
  by_span.connect_port(0, span_out.sink());
  by_span.connect_port(7, span_mon.sink());
  by_decoded.connect_port(0, dec_out.sink());
  by_decoded.connect_port(7, dec_mon.sink());
  for (SdnSwitch* sw : {&by_span, &by_decoded}) {
    sw->apply(mirror_mod(80, 0, 7), 0);
    FlowMod drop_mysql;
    drop_mysql.rule.priority = 20;
    drop_mysql.rule.match.dst_port = 3306;
    drop_mysql.rule.actions = {DropAction{}};
    sw->apply(drop_mysql, 0);
  }

  const std::pair<pktgen::TrafficKind, net::Port> kinds[] = {
      {pktgen::TrafficKind::http_get, 80},
      {pktgen::TrafficKind::mysql_query, 3306},
      {pktgen::TrafficKind::memcached_get, 11211},
      {pktgen::TrafficKind::raw_tcp, 443}};
  common::Timestamp ts = 0;
  for (const auto& [kind, dst_port] : kinds) {
    pktgen::GeneratorConfig cfg;
    cfg.kind = kind;
    cfg.dst_port = dst_port;
    cfg.flow_count = 32;
    pktgen::TrafficGenerator gen(cfg);
    for (int i = 0; i < 50; ++i) {
      const auto frame = gen.next_frame();
      by_span.handle_packet(1, frame, ++ts);
      auto pkt = net::decode_packet(frame);
      ASSERT_TRUE(pkt.has_value());
      pkt->timestamp = ts;
      by_decoded.handle_packet(1, *pkt);
    }
  }

  const auto& a = by_span.stats();
  const auto& b = by_decoded.stats();
  EXPECT_EQ(a.rx_packets, b.rx_packets);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.mirrored, b.mirrored);
  EXPECT_EQ(a.mirrored_bytes, b.mirrored_bytes);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(span_out.count, dec_out.count);
  EXPECT_EQ(span_mon.count, dec_mon.count);
  EXPECT_EQ(span_mon.bytes, dec_mon.bytes);
  EXPECT_EQ(a.rx_packets, 200u);
  EXPECT_EQ(a.mirrored, 50u);  // the HTTP frames
  EXPECT_EQ(a.dropped, 150u);  // MySQL by rule; memcached and :443 miss
}

}  // namespace
}  // namespace netalytics::sdn
