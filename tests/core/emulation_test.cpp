#include "core/emulation.hpp"

#include <gtest/gtest.h>

#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"

namespace netalytics::core {
namespace {

std::vector<std::byte> frame_between(net::Ipv4Addr src, net::Ipv4Addr dst,
                                     net::Port dst_port = 80) {
  pktgen::TcpFrameSpec spec;
  spec.flow = {src, dst, 5000, dst_port, 6};
  spec.pad_to_frame_size = 128;
  return pktgen::build_tcp_frame(spec);
}

TEST(Emulation, MakeSmallBindsAllHosts) {
  auto emu = Emulation::make_small(4);
  EXPECT_EQ(emu.topology().hosts().size(), 32u);
  const auto ip = emu.ip_of_name("h0");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip, net::make_ipv4(10, 0, 0, 1));
  EXPECT_TRUE(emu.node_of_name("h31").has_value());
  EXPECT_FALSE(emu.node_of_name("h32").has_value());
  EXPECT_EQ(*emu.node_of_ip(*ip), *emu.node_of_name("h0"));
  EXPECT_EQ(*emu.ip_of_node(*emu.node_of_name("h0")), *ip);
}

TEST(Emulation, BindHostRejectsConflicts) {
  auto emu = Emulation::make_small(2);
  const auto host = emu.topology().hosts().front();
  EXPECT_THROW(emu.bind_host("h0", net::make_ipv4(9, 9, 9, 9), host),
               std::invalid_argument);  // name taken
  EXPECT_THROW(emu.bind_host("fresh", net::make_ipv4(10, 0, 0, 1), host),
               std::invalid_argument);  // ip taken
  EXPECT_THROW(emu.bind_host("fresh", net::make_ipv4(9, 9, 9, 9),
                             emu.topology().tor_switches().front()),
               std::invalid_argument);  // not a host node
}

TEST(Emulation, NodesInPrefix) {
  auto emu = Emulation::make_small(4);
  // Rack 0 hosts live in 10.0.0.0/24.
  const auto rack0 = emu.nodes_in_prefix({net::make_ipv4(10, 0, 0, 0), 24});
  EXPECT_EQ(rack0.size(), 4u);
  const auto all = emu.nodes_in_prefix({net::make_ipv4(10, 0, 0, 0), 16});
  EXPECT_EQ(all.size(), 32u);
}

TEST(Emulation, TransmitCountsDelivery) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");  // different rack
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.transmitted_packets(), 1u);
  EXPECT_EQ(emu.delivered_packets(), 1u);  // exactly once, not per switch
  EXPECT_EQ(emu.delivered_bytes(), 128u);
}

TEST(Emulation, TransmitToUnknownDestinationNotDelivered) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  emu.transmit(frame_between(src, net::make_ipv4(99, 9, 9, 9)), 1);
  EXPECT_EQ(emu.delivered_packets(), 0u);
  EXPECT_EQ(emu.transmitted_packets(), 1u);
}

TEST(Emulation, MonitorSeesMirroredTraffic) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");
  const auto dst_node = *emu.node_of_name("h5");
  const auto dst_tor = emu.topology().tor_of_host(dst_node);

  int mirrored = 0;
  const auto port = emu.attach_monitor(
      dst_tor, [&mirrored](const net::DecodedPacket&) {
        ++mirrored;
      });

  sdn::FlowMatch match;
  match.dst_prefix = net::Ipv4Prefix{dst, 32};
  match.dst_port = 80;
  emu.controller().install_mirror(Emulation::switch_id(dst_tor), match,
                                  Emulation::kDeliveryPort, port, 10, 0);

  emu.transmit(frame_between(src, dst, 80), 1);   // matches
  emu.transmit(frame_between(src, dst, 443), 2);  // wrong port
  emu.transmit(frame_between(dst, src, 80), 3);   // reverse: not matched
  EXPECT_EQ(mirrored, 1);
  EXPECT_EQ(emu.delivered_packets(), 3u);  // mirroring never breaks delivery
}

TEST(Emulation, CrossRackFrameVisitsBothTors) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");
  const auto src_tor = emu.topology().tor_of_host(*emu.node_of_name("h0"));
  const auto dst_tor = emu.topology().tor_of_host(*emu.node_of_name("h5"));
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.switch_of_tor(src_tor).stats().rx_packets, 1u);
  EXPECT_EQ(emu.switch_of_tor(dst_tor).stats().rx_packets, 1u);
}

TEST(Emulation, SameRackFrameVisitsOneTor) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h1");
  const auto tor = emu.topology().tor_of_host(*emu.node_of_name("h0"));
  emu.transmit(frame_between(src, dst), 1);
  EXPECT_EQ(emu.switch_of_tor(tor).stats().rx_packets, 1u);
}

TEST(Emulation, MonitorPortsAreDistinct) {
  auto emu = Emulation::make_small(2);
  const auto tor = emu.topology().tor_switches().front();
  const auto p1 = emu.attach_monitor(tor, [](const net::DecodedPacket&) {});
  const auto p2 = emu.attach_monitor(tor, [](const net::DecodedPacket&) {});
  EXPECT_NE(p1, p2);
}

TEST(Emulation, MirrorSinkGetsTheTransmittedBufferAndTimestamp) {
  auto emu = Emulation::make_small(4);
  const auto src = *emu.ip_of_name("h0");
  const auto dst = *emu.ip_of_name("h5");
  const auto dst_tor = emu.topology().tor_of_host(*emu.node_of_name("h5"));

  std::vector<net::DecodedPacket> seen;
  const auto port = emu.attach_monitor(
      dst_tor, [&seen](const net::DecodedPacket& pkt) { seen.push_back(pkt); });
  sdn::FlowMatch match;
  match.dst_prefix = net::Ipv4Prefix{dst, 32};
  emu.controller().install_mirror(Emulation::switch_id(dst_tor), match,
                                  Emulation::kDeliveryPort, port, 10, 0);

  const auto frame = frame_between(src, dst);
  emu.transmit(frame, 4242);
  ASSERT_EQ(seen.size(), 1u);
  // Zero-copy: the monitor reads the very bytes handed to transmit().
  EXPECT_EQ(seen[0].frame.data(), frame.data());
  EXPECT_EQ(seen[0].frame.size(), frame.size());
  EXPECT_EQ(seen[0].timestamp, 4242u);
  EXPECT_TRUE(seen[0].has_tcp);
  EXPECT_EQ(seen[0].five_tuple.dst_port, 80);
}

// Differential: transmit() decodes once and hands the packet through both
// ToRs into the monitors. Replaying the same frames hop by hop through the
// raw-frame entries (each switch and monitor decoding for itself) must give
// identical switch and monitor counters.
class DecodedHopPath : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { parsers::register_builtin_parsers(); }

  struct Fabric {
    Emulation emu = Emulation::make_small(4);
    std::vector<std::unique_ptr<nf::Monitor>> monitors;
    std::size_t records = 0;

    /// One monitor per ToR, mirroring HTTP and MySQL requests to it. With
    /// `span_entry` the monitor port re-decodes via process(frame, ts).
    explicit Fabric(bool span_entry) {
      for (const auto tor : emu.topology().tor_switches()) {
        nf::MonitorConfig cfg;
        cfg.parsers = {{"http_get", 1}, {"mysql_query", 1}, {"tcp_pkt_size", 1}};
        cfg.output_batch_records = 1;
        auto* mon = monitors
                        .emplace_back(std::make_unique<nf::Monitor>(
                            cfg, [this](std::string_view, std::vector<std::byte>,
                                        const nf::BatchInfo& info) {
                              records += info.records;
                            }))
                        .get();
        sdn::PortSink sink;
        if (span_entry) {
          sink = [mon](const net::DecodedPacket& pkt) {
            mon->process(pkt.frame, pkt.timestamp);
          };
        } else {
          sink = [mon](const net::DecodedPacket& pkt) { mon->process(pkt); };
        }
        const auto port = emu.attach_monitor(tor, std::move(sink));
        for (const net::Port dst_port : {net::Port{80}, net::Port{3306}}) {
          sdn::FlowMatch match;
          match.eth_type = net::kEtherTypeIpv4;
          match.dst_port = dst_port;
          emu.controller().install_mirror(Emulation::switch_id(tor), match,
                                          Emulation::kDeliveryPort, port, 10, 0);
        }
      }
    }

    /// The pre-decode-once walk: resolve the endpoints, then give the raw
    /// frame to the source ToR and (when different) the destination ToR.
    void replay_per_hop(std::span<const std::byte> frame, common::Timestamp ts) {
      const auto d = net::decode_packet(frame);
      if (!d || !d->has_ipv4) return;
      std::optional<dcn::NodeId> src_tor, dst_tor;
      if (const auto n = emu.node_of_ip(d->ipv4.src)) {
        src_tor = emu.topology().tor_of_host(*n);
      }
      if (const auto n = emu.node_of_ip(d->ipv4.dst)) {
        dst_tor = emu.topology().tor_of_host(*n);
      }
      if (src_tor) {
        emu.switch_of_tor(*src_tor).handle_packet(Emulation::kIngressPort, frame, ts);
      }
      if (dst_tor && dst_tor != src_tor) {
        emu.switch_of_tor(*dst_tor).handle_packet(Emulation::kIngressPort, frame, ts);
      }
    }
  };

  /// A pktgen mix: cross-rack, same-rack and half-bound flows of HTTP,
  /// MySQL, memcached (UDP) and raw TCP, plus frames transmit() ignores.
  static std::vector<std::vector<std::byte>> traffic_mix() {
    std::vector<std::vector<std::byte>> frames;
    const std::pair<pktgen::TrafficKind, net::Port> kinds[] = {
        {pktgen::TrafficKind::http_get, 80},
        {pktgen::TrafficKind::mysql_query, 3306},
        {pktgen::TrafficKind::memcached_get, 11211},
        {pktgen::TrafficKind::raw_tcp, 80},
        {pktgen::TrafficKind::tcp_lifecycle, 443}};
    for (const auto& [kind, dst_port] : kinds) {
      for (const std::uint8_t dst_rack : {0, 1}) {
        pktgen::GeneratorConfig cfg;
        cfg.kind = kind;
        cfg.flow_count = 24;  // sources 10.0.0.0-23: only .1-.4 are bound
        cfg.dst_base = net::make_ipv4(10, 0, dst_rack, 0);
        cfg.dst_port = dst_port;
        cfg.seed = 7 + dst_rack;
        pktgen::TrafficGenerator gen(cfg);
        for (int i = 0; i < 60; ++i) {
          const auto f = gen.next_frame();
          frames.emplace_back(f.begin(), f.end());
        }
      }
    }
    frames.emplace_back(5);  // runt: fails to decode
    auto arp = frames.front();
    arp[12] = std::byte{0x08};  // EtherType 0x0806: decodes, not IPv4
    arp[13] = std::byte{0x06};
    frames.push_back(std::move(arp));
    return frames;
  }
};

TEST_F(DecodedHopPath, CountersMatchPerHopDecode) {
  Fabric once(/*span_entry=*/false);
  Fabric per_hop(/*span_entry=*/true);
  const auto frames = traffic_mix();
  common::Timestamp ts = 0;
  for (const auto& f : frames) {
    ts += common::kMicrosecond;
    once.emu.transmit(f, ts);
    per_hop.replay_per_hop(f, ts);
  }

  std::uint64_t mirrored = 0;
  for (const auto tor : once.emu.topology().tor_switches()) {
    const auto& a = once.emu.switch_of_tor(tor).stats();
    const auto& b = per_hop.emu.switch_of_tor(tor).stats();
    EXPECT_EQ(a.rx_packets, b.rx_packets) << "tor " << tor;
    EXPECT_EQ(a.matched, b.matched) << "tor " << tor;
    EXPECT_EQ(a.missed, b.missed) << "tor " << tor;
    EXPECT_EQ(a.forwarded, b.forwarded) << "tor " << tor;
    EXPECT_EQ(a.mirrored, b.mirrored) << "tor " << tor;
    EXPECT_EQ(a.mirrored_bytes, b.mirrored_bytes) << "tor " << tor;
    EXPECT_EQ(a.dropped, b.dropped) << "tor " << tor;
    mirrored += a.mirrored;
  }
  EXPECT_GT(mirrored, 0u);  // the mix really exercised the mirror path

  std::uint64_t parsed = 0;
  for (std::size_t i = 0; i < once.monitors.size(); ++i) {
    once.monitors[i]->close(ts);
    per_hop.monitors[i]->close(ts);
    const auto a = once.monitors[i]->stats();
    const auto b = per_hop.monitors[i]->stats();
    EXPECT_EQ(a.rx_packets, b.rx_packets) << "monitor " << i;
    EXPECT_EQ(a.decode_failed, b.decode_failed) << "monitor " << i;
    EXPECT_EQ(a.dispatched, b.dispatched) << "monitor " << i;
    EXPECT_EQ(a.parsed, b.parsed) << "monitor " << i;
    EXPECT_EQ(a.records, b.records) << "monitor " << i;
    EXPECT_EQ(a.record_bytes, b.record_bytes) << "monitor " << i;
    EXPECT_EQ(a.raw_bytes, b.raw_bytes) << "monitor " << i;
    parsed += a.parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(once.records, per_hop.records);
  EXPECT_EQ(once.emu.transmitted_packets(), frames.size());
}

}  // namespace
}  // namespace netalytics::core
