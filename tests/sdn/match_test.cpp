#include "sdn/match.hpp"

#include <gtest/gtest.h>

#include "pktgen/builder.hpp"

namespace netalytics::sdn {
namespace {

net::DecodedPacket make_packet(const net::FiveTuple& flow,
                               std::vector<std::byte>& storage) {
  pktgen::TcpFrameSpec spec;
  spec.flow = flow;
  spec.pad_to_frame_size = 64;
  storage = pktgen::build_tcp_frame(spec);
  auto d = net::decode_packet(storage);
  EXPECT_TRUE(d.has_value());
  return *d;
}

net::FiveTuple sample_flow() {
  return {net::make_ipv4(10, 0, 2, 8), net::make_ipv4(10, 0, 2, 9), 5555, 80, 6};
}

TEST(FlowMatch, WildcardMatchesEverything) {
  std::vector<std::byte> storage;
  const auto pkt = make_packet(sample_flow(), storage);
  FlowMatch m;
  EXPECT_TRUE(m.is_wildcard());
  EXPECT_TRUE(m.matches(pkt, 0));
  EXPECT_TRUE(m.matches(pkt, 99));
}

TEST(FlowMatch, ExactFiveTupleMatch) {
  std::vector<std::byte> storage;
  const auto pkt = make_packet(sample_flow(), storage);
  FlowMatch m;
  m.src_prefix = net::Ipv4Prefix{net::make_ipv4(10, 0, 2, 8), 32};
  m.dst_prefix = net::Ipv4Prefix{net::make_ipv4(10, 0, 2, 9), 32};
  m.src_port = 5555;
  m.dst_port = 80;
  m.ip_proto = 6;
  EXPECT_TRUE(m.matches(pkt, 0));

  m.dst_port = 81;
  EXPECT_FALSE(m.matches(pkt, 0));
}

TEST(FlowMatch, PrefixMatch) {
  std::vector<std::byte> storage;
  const auto pkt = make_packet(sample_flow(), storage);
  FlowMatch m;
  m.dst_prefix = net::Ipv4Prefix{net::make_ipv4(10, 0, 2, 0), 24};
  EXPECT_TRUE(m.matches(pkt, 0));
  m.dst_prefix = net::Ipv4Prefix{net::make_ipv4(10, 0, 3, 0), 24};
  EXPECT_FALSE(m.matches(pkt, 0));
}

TEST(FlowMatch, InPortRestricts) {
  std::vector<std::byte> storage;
  const auto pkt = make_packet(sample_flow(), storage);
  FlowMatch m;
  m.in_port = 3;
  EXPECT_TRUE(m.matches(pkt, 3));
  EXPECT_FALSE(m.matches(pkt, 4));
}

TEST(FlowMatch, L4FieldRequiresL4) {
  // A non-IP packet cannot match a rule with a dst_port.
  std::vector<std::byte> storage;
  make_packet(sample_flow(), storage);  // fills storage with an IPv4 frame
  storage[12] = std::byte{0x86};
  storage[13] = std::byte{0xdd};
  const auto nonip = net::decode_packet(storage);
  ASSERT_TRUE(nonip.has_value());
  FlowMatch m;
  m.dst_port = 80;
  EXPECT_FALSE(m.matches(*nonip, 0));
}

TEST(FlowMatch, SpecificityCountsFields) {
  FlowMatch m;
  EXPECT_EQ(m.specificity(), 0);
  m.dst_port = 80;
  m.ip_proto = 6;
  EXPECT_EQ(m.specificity(), 2);
}

TEST(FlowMatch, Builders) {
  std::vector<std::byte> storage;
  const auto pkt = make_packet(sample_flow(), storage);
  const auto from = match_from_endpoint({net::make_ipv4(10, 0, 2, 8), 32}, 5555);
  EXPECT_TRUE(from.matches(pkt, 0));
  const auto to = match_to_endpoint({net::make_ipv4(10, 0, 2, 9), 32}, 80);
  EXPECT_TRUE(to.matches(pkt, 0));
  const auto wrong = match_to_endpoint({net::make_ipv4(10, 0, 2, 9), 32}, 8080);
  EXPECT_FALSE(wrong.matches(pkt, 0));
}

TEST(FlowMatch, ToStringReadable) {
  FlowMatch m;
  EXPECT_EQ(m.to_string(), "match(*)");
  m.dst_port = 80;
  m.dst_prefix = net::Ipv4Prefix{net::make_ipv4(10, 0, 2, 9), 32};
  const auto s = m.to_string();
  EXPECT_NE(s.find("dst=10.0.2.9"), std::string::npos);
  EXPECT_NE(s.find("dport=80"), std::string::npos);
}

}  // namespace
}  // namespace netalytics::sdn
