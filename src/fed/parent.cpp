#include "fed/parent.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <variant>

#include "obs/prometheus.hpp"
#include "stream/tuple.hpp"

namespace netalytics::fed {

namespace {

/// The fan-in key of one record: a string field by view, anything else
/// formatted into `scratch` (stream::format_value, as a tuple renders it).
std::string_view key_of(std::span<const nf::FieldValue> row, std::size_t field,
                        std::string& scratch) {
  if (field >= row.size()) return "<missing>";
  if (const auto* s = std::get_if<std::string>(&row[field])) return *s;
  scratch = stream::format_value(row[field]);
  return scratch;
}

}  // namespace

void ParentNode::Rows::begin(std::size_t /*records*/) {
  fields_.clear();
  starts_.clear();
}

std::vector<nf::FieldValue>& ParentNode::Rows::record(
    std::string_view /*topic*/, std::uint64_t /*id*/,
    common::Timestamp /*timestamp*/, std::size_t /*field_count*/) {
  starts_.push_back(fields_.size());
  return fields_;
}

std::span<const nf::FieldValue> ParentNode::Rows::row(
    std::size_t i) const noexcept {
  const std::size_t end = i + 1 < starts_.size() ? starts_[i + 1] : fields_.size();
  return std::span<const nf::FieldValue>(fields_).subspan(starts_[i],
                                                          end - starts_[i]);
}

ParentNode::ParentNode(std::vector<Link*> links, ParentConfig cfg)
    : cfg_(std::move(cfg)),
      slots_(links.size()),
      fanin_(links.empty() ? 1 : links.size(), cfg_.top_k),
      store_(cfg_.store) {
  if (links.empty()) {
    throw std::invalid_argument("ParentNode: at least one child link");
  }
  for (std::size_t i = 0; i < links.size(); ++i) slots_[i].link = links[i];
}

void ParentNode::pump(common::Timestamp now) {
  now_ = now;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    // A reconnected link starts at a frame boundary; discard any partial
    // frame left over from the dropped connection.
    if (slot.link->stats().connects != slot.seen_connects) {
      slot.seen_connects = slot.link->stats().connects;
      slot.parser.reset();
    }
    if (!slot.link->connected()) slot.stats.connected = false;
    const auto bytes = slot.link->drain_up();
    if (!bytes.empty()) slot.parser.feed(bytes);
    try {
      while (auto frame = slot.parser.next()) {
        apply_frame(i, *frame, now);
        if (!slot.link->connected()) break;  // refused HELLO dropped the link
      }
    } catch (const std::out_of_range&) {
      // The parser and every decoder report corrupt bytes this way, and
      // each frame is decoded whole before it is applied.
      quarantine(i);
    }
    if (slot.stats.connected && slot.stats.applied != slot.last_acked) {
      const Ack ack{.child_index = static_cast<std::uint32_t>(i),
                    .high_watermark = slot.stats.applied};
      if (slot.link->send_down(encode(ack), now)) {
        slot.last_acked = slot.stats.applied;
      }
    }
  }
  if (store_.enabled()) store_.capture(now, registry_.snapshot());
}

void ParentNode::apply_frame(std::size_t child, const Frame& frame,
                             common::Timestamp now) {
  Slot& slot = slots_[child];
  switch (frame.type) {
    case MsgType::hello: {
      const Hello h = decode_hello(frame.payload);
      if (h.magic != kMagic || h.version != kProtocolVersion ||
          h.child_index != child) {
        slot.stats.refused += 1;
        slot.link->drop();  // version rules: refuse by RST
        return;
      }
      slot.stats.node_name = h.node_name;
      const Welcome w{.version = kProtocolVersion,
                      .child_index = static_cast<std::uint32_t>(child),
                      .high_watermark = slot.stats.applied};
      if (slot.link->send_down(encode(w), now)) {
        slot.stats.connected = true;
        slot.stats.handshakes += 1;
        slot.last_acked = slot.stats.applied;  // WELCOME doubles as an ACK
      }
      return;
    }
    case MsgType::records:
      apply_records(child, decode_records(frame.payload));
      return;
    case MsgType::metrics:
      apply_metrics(child, decode_metrics(frame.payload));
      slot.stats.metrics_frames += 1;
      return;
    case MsgType::bye: {
      (void)decode_bye(frame.payload);
      slot.stats.byes += 1;
      slot.stats.connected = false;
      return;
    }
    default:
      return;  // children never send WELCOME/ACK; tolerate and skip
  }
}

void ParentNode::apply_records(std::size_t child, const RecordsView& rv) {
  nf::read_batch(rv.batch, rows_);  // throws before anything is applied
  const std::uint64_t n = rows_.size();
  if (rv.offset > std::numeric_limits<std::uint64_t>::max() - n) {
    throw std::out_of_range("fed::ParentNode: RECORDS offset overflows");
  }
  Slot& slot = slots_[child];
  slot.stats.record_frames += 1;
  const std::uint64_t end = rv.offset + n;
  if (end <= slot.stats.applied) {
    // Whole frame below the watermark: a replay or duplicated frame.
    slot.stats.duplicate_records += n;
    return;
  }
  if (rv.offset > slot.stats.applied) {
    // Offset gap: the child overflowed its replay buffer and shed frames
    // it could no longer replicate. Charge the loss; exactness for these
    // records is given up (and visible in reconcile()).
    slot.stats.lost_records += rv.offset - slot.stats.applied;
  } else {
    slot.stats.duplicate_records += slot.stats.applied - rv.offset;
  }
  const std::uint64_t start = std::max(rv.offset, slot.stats.applied);
  for (std::size_t i = start - rv.offset; i < n; ++i) {
    const auto row = rows_.row(i);
    fanin_.add(child, key_of(row, cfg_.key_field, key_), 1);
    if (observer_) [[unlikely]] observer_(child, row);
  }
  slot.stats.applied = end;
}

void ParentNode::quarantine(std::size_t child) {
  Slot& slot = slots_[child];
  slot.stats.corrupt_frames += 1;
  slot.stats.connected = false;
  slot.parser.reset();  // the rest of this connection's bytes are suspect
  slot.link->drop();
  // Registered on first use, so a clean fleet carries no always-zero series.
  registry_.counter("fleet.child" + std::to_string(child) + ".fed.corrupt_frames")
      .inc();
}

void ParentNode::apply_metrics(std::size_t child, const MetricsFrame& mf) {
  // Samples carry absolute values, so application is idempotent: counters
  // max-merge (a replayed older frame can never regress the merged value),
  // gauges are last-writer-wins within the per-connection frame order.
  const std::string prefix =
      "fleet.child" + std::to_string(child) + ".";
  for (const auto& c : mf.counters) {
    auto& counter = registry_.counter(prefix + c.name);
    const std::uint64_t cur = counter.value();
    if (c.value > cur) counter.inc(c.value - cur);
  }
  for (const auto& g : mf.gauges) {
    registry_.gauge(prefix + g.name).set(g.value);
  }
}

std::uint64_t ParentNode::total_records_applied() const noexcept {
  std::uint64_t n = 0;
  for (const auto& slot : slots_) n += slot.stats.applied;
  return n;
}

std::string ParentNode::export_metrics() const {
  const obs::PrometheusExporter exporter(cfg_.export_options);
  return exporter.export_snapshot(registry_.snapshot());
}

tsdb::RangeResult ParentNode::query_range(const tsdb::RangeQuery& q) const {
  const auto head = registry_.snapshot();
  return store_.query_range(q, tsdb::LiveHead{now_, &head});
}

}  // namespace netalytics::fed
