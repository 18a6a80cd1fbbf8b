// Network-layer parsers from Table 1: tcp_flow_key, tcp_conn_time,
// tcp_pkt_size.
#include "common/clock.hpp"
#include "nf/parser.hpp"
#include "parsers/flow_state.hpp"
#include "parsers/parsers.hpp"
#include "parsers/register.hpp"

namespace netalytics::parsers {

namespace {

using nf::FieldView;
using nf::PacketParser;
using nf::RecordSink;

/// Emits the 4-tuple once per (directional) flow.
class TcpFlowKeyParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kTcpFlowKey; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp) return;
    if (seen_.find(pkt.flow_hash) != nullptr) return;
    seen_.put(pkt.flow_hash, true);
    const FieldView fields[] = {std::uint64_t{pkt.five_tuple.src_ip},
                                std::uint64_t{pkt.five_tuple.dst_ip},
                                std::uint64_t{pkt.five_tuple.src_port},
                                std::uint64_t{pkt.five_tuple.dst_port}};
    sink.emit({kTcpFlowKey, pkt.flow_hash, pkt.timestamp, fields});
  }

 private:
  FlowStateMap<bool> seen_;
};

/// Detects SYN/FIN/RST flags and reports connection start and end events;
/// the diff building block downstream computes durations (§7.1).
class TcpConnTimeParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kTcpConnTime; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp) return;
    const auto id = pkt.bidirectional_flow_hash;

    const bool is_syn = pkt.tcp.has_flag(net::tcp_flags::kSyn) &&
                        !pkt.tcp.has_flag(net::tcp_flags::kAck);
    if (is_syn) {
      // Remember the originator's orientation so the end event reports the
      // same src/dst regardless of which side closes.
      open_.put(id, pkt.five_tuple);
      emit_event(sink, id, pkt.timestamp, pkt.five_tuple, "start");
      return;
    }

    const bool ends = pkt.tcp.has_flag(net::tcp_flags::kFin) ||
                      pkt.tcp.has_flag(net::tcp_flags::kRst);
    if (ends) {
      const net::FiveTuple* orient = open_.find(id);
      if (orient == nullptr) return;  // never saw the SYN; skip the event
      emit_event(sink, id, pkt.timestamp, *orient, "end");
      open_.erase(id);  // first FIN/RST closes; ignore the peer's FIN
    }
  }

 private:
  static void emit_event(RecordSink& sink, std::uint64_t id, common::Timestamp ts,
                         const net::FiveTuple& t, std::string_view event) {
    const FieldView fields[] = {event, std::uint64_t{t.src_ip},
                                std::uint64_t{t.dst_ip}, std::uint64_t{t.src_port},
                                std::uint64_t{t.dst_port}};
    sink.emit({kTcpConnTime, id, ts, fields});
  }

  FlowStateMap<net::FiveTuple> open_;
};

/// Aggregates per-flow payload bytes/packets and releases them each tick —
/// downstream group-sum turns this into per-connection throughput (§7.1).
class TcpPktSizeParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kTcpPktSize; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp) return;
    Counter* c = counters_.find(pkt.flow_hash);
    if (c == nullptr) {
      c = &counters_.put(pkt.flow_hash, Counter{pkt.five_tuple, 0, 0});
    }
    c->bytes += pkt.l4_payload_size;
    ++c->packets;
    // Flush immediately on connection end so short flows are not delayed a
    // full tick.
    if (pkt.tcp.has_flag(net::tcp_flags::kFin) ||
        pkt.tcp.has_flag(net::tcp_flags::kRst)) {
      flush_one(sink, pkt.flow_hash, *c, pkt.timestamp);
      counters_.erase(pkt.flow_hash);
    }
  }

  void on_tick(common::Timestamp now, RecordSink& sink) override {
    std::vector<std::uint64_t> flushed;
    counters_.for_each([&](std::uint64_t key, const Counter& c) {
      if (c.packets == 0) return;
      flush_one(sink, key, c, now);
      flushed.push_back(key);
    });
    for (const auto key : flushed) counters_.erase(key);
  }

 private:
  struct Counter {
    net::FiveTuple flow;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
  };

  void flush_one(RecordSink& sink, std::uint64_t id, const Counter& c,
                 common::Timestamp ts) {
    const FieldView fields[] = {std::uint64_t{c.flow.src_ip},
                                std::uint64_t{c.flow.dst_ip},
                                std::uint64_t{c.flow.dst_port}, c.bytes, c.packets};
    sink.emit({kTcpPktSize, id, ts, fields});
  }

  FlowStateMap<Counter> counters_;
};

}  // namespace

void register_tcp_parsers() {
  auto& reg = nf::ParserRegistry::instance();
  reg.register_parser(std::string(kTcpFlowKey),
                      [] { return std::make_unique<TcpFlowKeyParser>(); });
  reg.register_parser(std::string(kTcpConnTime),
                      [] { return std::make_unique<TcpConnTimeParser>(); });
  reg.register_parser(std::string(kTcpPktSize),
                      [] { return std::make_unique<TcpPktSizeParser>(); });
}

}  // namespace netalytics::parsers
