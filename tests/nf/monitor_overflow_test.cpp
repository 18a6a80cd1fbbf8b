// Chaos coverage for the monitor: injected ring overflows and parser
// exceptions must never kill the NF — they are counted, and parsing
// continues on the very next packet.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "common/fault.hpp"
#include "common/trace.hpp"
#include "net/decode.hpp"
#include "nf/monitor.hpp"
#include "parsers/parsers.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/generator.hpp"
#include "pktgen/payloads.hpp"

namespace netalytics::nf {
namespace {

class MonitorOverflowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { parsers::register_builtin_parsers(); }

  struct SharedCapture {
    std::mutex mutex;
    std::vector<Record> records;
    BatchSink sink() {
      return [this](std::string_view, std::vector<std::byte> payload, const BatchInfo&) {
        auto recs = deserialize_batch(payload);
        std::lock_guard lock(mutex);
        for (auto& r : recs) records.push_back(std::move(r));
      };
    }
  };

  static std::vector<std::byte> http_frame(int flow) {
    const auto payload = pktgen::http_get_request("/x.html", "h");
    pktgen::TcpFrameSpec spec;
    spec.flow = {net::make_ipv4(10, 0, 1, static_cast<std::uint8_t>(flow)),
                 net::make_ipv4(10, 0, 0, 2),
                 static_cast<net::Port>(20000 + flow), 80, 6};
    spec.payload = payload;
    return pktgen::build_tcp_frame(spec);
  }
};

TEST_F(MonitorOverflowTest, InjectedRxOverflowCountsDropsAndSurvives) {
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 2;
  plan.arm(std::string(kFaultRxOverflow), spec);
  mon.install_faults(&plan);

  for (int i = 0; i < 10; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 10u);
  EXPECT_EQ(stats.rx_dropped, 5u);
  EXPECT_EQ(stats.parsed, 5u);
  EXPECT_EQ(cap.records.size(), 5u);
  EXPECT_EQ(plan.fires(kFaultRxOverflow), 5u);
}

TEST_F(MonitorOverflowTest, InjectedParserThrowIsCountedAndParsingContinues) {
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 3;  // packets 3, 6, 9, ... blow up inside the parser
  plan.arm(std::string(kFaultParserThrow), spec);
  mon.install_faults(&plan);

  for (int i = 0; i < 12; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 12u);
  EXPECT_EQ(stats.rx_dropped, 0u);
  EXPECT_EQ(stats.parser_errors, 4u);
  EXPECT_EQ(stats.parsed, 8u);
  // Every surviving HTTP GET still produced its record.
  EXPECT_EQ(cap.records.size(), stats.parsed);
  EXPECT_EQ(stats.records, stats.parsed);
}

TEST_F(MonitorOverflowTest, ParserThrowDoesNotCorruptLaterPackets) {
  // A fault on packet N must not leak state into packet N+1: arm a one-shot
  // throw, then verify the next packet parses normally.
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 1;
  plan.arm(std::string(kFaultParserThrow), spec);
  mon.install_faults(&plan);

  mon.process(http_frame(1), 10);  // eaten by the injected throw
  mon.process(http_frame(2), 20);  // must parse normally
  mon.close(100);

  EXPECT_EQ(mon.stats().parser_errors, 1u);
  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_EQ(cap.records[0].timestamp, 20u);
  EXPECT_EQ(as_str(cap.records[0].fields[1]), "/x.html");
}

TEST_F(MonitorOverflowTest, ThreadedWorkerOverflowAndThrowAreCounted) {
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 2}};
  cfg.output_batch_records = 8;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(17);
  common::FaultSpec worker;
  worker.probability = 0.1;
  plan.arm(std::string(kFaultWorkerOverflow), worker);
  common::FaultSpec thrower;
  thrower.probability = 0.05;
  plan.arm(std::string(kFaultParserThrow), thrower);
  mon.install_faults(&plan);

  net::PacketPool pool(4096);
  pktgen::GeneratorConfig gcfg;
  gcfg.kind = pktgen::TrafficKind::http_get;
  gcfg.flow_count = 64;
  gcfg.frame_size = 256;
  pktgen::TrafficGenerator gen(gcfg);

  mon.start();
  int offered = 0;
  int injected = 0;
  for (int i = 0; i < 5000; ++i) {
    auto pkt = pool.make_packet(gen.next_frame(), i);
    if (!pkt) continue;
    ++offered;
    injected += mon.inject(std::move(pkt));
  }
  mon.stop();

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, static_cast<std::uint64_t>(offered));
  EXPECT_GT(stats.worker_dropped, 0u);
  EXPECT_GT(stats.parser_errors, 0u);
  // Accounting closes: everything injected was dropped, errored, or parsed.
  EXPECT_EQ(stats.parsed + stats.worker_dropped + stats.parser_errors,
            static_cast<std::uint64_t>(injected));
  // The monitor survived: parsed packets still produced records, and every
  // pool buffer came back (faulted descriptors released their refcounts).
  EXPECT_EQ(stats.records, stats.parsed);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST_F(MonitorOverflowTest, UndecodableFrameIsChargedAsDecodeError) {
  common::MetricsRegistry registry;
  common::DropLedger ledger(registry);
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.drop_ledger = &ledger;
  Monitor mon(cfg, cap.sink());

  const std::vector<std::byte> runt(5);
  mon.process(runt, 1);
  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 1u);
  EXPECT_EQ(stats.decode_failed, 1u);
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_EQ(ledger.value(common::DropCause::ingest_decode_error), 1u);
}

TEST_F(MonitorOverflowTest, RxOverflowDrawPrecedesDecodeCharge) {
  // Every admitted packet takes the RX-overflow draw before it is decoded,
  // undecodable ones included: with every 2nd check firing, the fault wins
  // on packets 2 and 4 whatever their bytes.
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  common::FaultPlan plan(9);
  common::FaultSpec spec;
  spec.every_nth = 2;
  plan.arm(std::string(kFaultRxOverflow), spec);
  mon.install_faults(&plan);

  const std::vector<std::byte> runt(5);
  mon.process(runt, 1);           // draw 1: no fire -> decode error
  mon.process(runt, 2);           // draw 2: fires -> overflow, not decode
  mon.process(http_frame(3), 3);  // draw 3: no fire -> parsed
  mon.process(http_frame(4), 4);  // draw 4: fires -> overflow
  mon.close(10);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_packets, 4u);
  EXPECT_EQ(stats.decode_failed, 1u);
  EXPECT_EQ(stats.rx_dropped, 2u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(plan.site_stats(kFaultRxOverflow).checks, 4u);
  EXPECT_EQ(plan.fires(kFaultRxOverflow), 2u);
}

TEST_F(MonitorOverflowTest, DecodedEntryMatchesSpanEntry) {
  SharedCapture span_cap, decoded_cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}, {"tcp_pkt_size", 2}};
  cfg.output_batch_records = 4;
  Monitor by_span(cfg, span_cap.sink());
  Monitor by_decoded(cfg, decoded_cap.sink());

  for (int i = 0; i < 40; ++i) {
    const auto frame = http_frame(i);
    by_span.process(frame, i);
    auto pkt = net::decode_packet(frame);
    ASSERT_TRUE(pkt.has_value());
    pkt->timestamp = i;
    by_decoded.process(*pkt);
  }
  by_span.close(100);
  by_decoded.close(100);

  const auto a = by_span.stats();
  const auto b = by_decoded.stats();
  EXPECT_EQ(a.rx_packets, b.rx_packets);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.parsed, b.parsed);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.record_bytes, b.record_bytes);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(span_cap.records, decoded_cap.records);
  EXPECT_EQ(a.parsed, 80u);  // 40 packets x 2 parser groups
}

TEST_F(MonitorOverflowTest, NoPlanMeansNoFaultPath) {
  // Zero-cost guard: without install_faults the monitor behaves exactly as
  // before — nothing dropped, nothing thrown.
  SharedCapture cap;
  MonitorConfig cfg;
  cfg.parsers = {{"http_get", 1}};
  cfg.output_batch_records = 1;
  Monitor mon(cfg, cap.sink());

  for (int i = 0; i < 20; ++i) mon.process(http_frame(i), i);
  mon.close(100);

  const auto stats = mon.stats();
  EXPECT_EQ(stats.rx_dropped, 0u);
  EXPECT_EQ(stats.parser_errors, 0u);
  EXPECT_EQ(stats.parsed, 20u);
  EXPECT_EQ(cap.records.size(), 20u);
}

}  // namespace
}  // namespace netalytics::nf
