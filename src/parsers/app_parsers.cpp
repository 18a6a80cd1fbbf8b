// Application-layer parsers from Table 1: http_get, memcached_get,
// mysql_query. Each contains only a handful of lines of protocol-specific
// logic on top of the parser framework — the paper quotes 12 lines for the
// HTTP GET parser.
#include <string_view>

#include "common/byte_io.hpp"
#include "common/string_util.hpp"
#include "nf/parser.hpp"
#include "parsers/flow_state.hpp"
#include "parsers/parsers.hpp"
#include "parsers/register.hpp"

namespace netalytics::parsers {

namespace {

using nf::FieldView;
using nf::PacketParser;
using nf::RecordSink;
using namespace std::string_view_literals;

/// Extracts the URL of HTTP GET requests and the status of responses.
class HttpGetParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kHttpGet; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp || pkt.l4_payload_size == 0) return;
    const auto payload = common::as_string_view(pkt.payload());
    if (payload.starts_with("GET ")) {
      const auto rest = payload.substr(4);
      const auto space = rest.find(' ');
      if (space == std::string_view::npos || !rest.substr(space).starts_with(" HTTP/"))
        return;
      const FieldView fields[] = {"request"sv, rest.substr(0, space)};
      sink.emit({kHttpGet, pkt.bidirectional_flow_hash, pkt.timestamp, fields});
    } else if (payload.starts_with("HTTP/1.")) {
      // "HTTP/1.x NNN ..."
      if (payload.size() < 12) return;
      std::uint64_t status = 0;
      if (!common::parse_u64(payload.substr(9, 3), status)) return;
      const FieldView fields[] = {"response"sv, status};
      sink.emit({kHttpGet, pkt.bidirectional_flow_hash, pkt.timestamp, fields});
    }
  }
};

/// Parses memcached text-protocol get requests.
class MemcachedGetParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kMemcachedGet; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp || pkt.l4_payload_size == 0) return;
    const auto payload = common::as_string_view(pkt.payload());
    if (!payload.starts_with("get ")) return;
    const auto end = payload.find("\r\n", 4);
    if (end == std::string_view::npos) return;
    const FieldView fields[] = {payload.substr(4, end - 4)};
    sink.emit({kMemcachedGet, pkt.bidirectional_flow_hash, pkt.timestamp, fields});
  }
};

/// Observes a TCP stream to detect individual MySQL query/response pairs
/// (§7.2: several queries can share one connection, so connection-level
/// timing hides per-query latency). Emits the statement plus its latency
/// when the first response packet arrives.
class MysqlQueryParser final : public PacketParser {
 public:
  std::string_view name() const noexcept override { return kMysqlQuery; }

  void on_packet(const net::DecodedPacket& pkt, RecordSink& sink) override {
    if (!pkt.has_tcp || pkt.l4_payload_size < 5) return;
    const auto id = pkt.bidirectional_flow_hash;
    const auto payload = pkt.payload();

    const bool to_server = pkt.five_tuple.dst_port == 3306;
    if (to_server) {
      // MySQL framing: 3-byte length, 1-byte seq, then command byte.
      if (static_cast<std::uint8_t>(payload[4]) != 0x03) return;  // COM_QUERY
      // Overwrite the (recycled) slot in place: the statement string keeps
      // the capacity an earlier query left, so steady state allocates nothing.
      Pending& p = pending_.slot(id);
      p.statement.assign(common::as_string_view(payload.subspan(5)));
      p.query_time = pkt.timestamp;
    } else if (pkt.five_tuple.src_port == 3306) {
      Pending* p = pending_.find(id);
      if (p == nullptr) return;  // response without an observed query
      const FieldView fields[] = {std::string_view(p->statement),
                                  std::uint64_t{pkt.timestamp - p->query_time}};
      sink.emit({kMysqlQuery, id, pkt.timestamp, fields});
      pending_.erase(id);  // after emit: the view borrowed the statement
    }
  }

 private:
  struct Pending {
    std::string statement;
    common::Timestamp query_time = 0;
  };
  FlowStateMap<Pending> pending_;
};

}  // namespace

void register_app_parsers() {
  auto& reg = nf::ParserRegistry::instance();
  reg.register_parser(std::string(kHttpGet),
                      [] { return std::make_unique<HttpGetParser>(); });
  reg.register_parser(std::string(kMemcachedGet),
                      [] { return std::make_unique<MemcachedGetParser>(); });
  reg.register_parser(std::string(kMysqlQuery),
                      [] { return std::make_unique<MysqlQueryParser>(); });
}

}  // namespace netalytics::parsers
