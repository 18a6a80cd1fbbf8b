#include "fed/child.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace netalytics::fed {

ChildNode::ChildNode(core::NetAlytics& engine, const core::QueryHandle& query,
                     Link& link, ChildConfig cfg)
    : engine_(engine), query_(query), link_(link), cfg_(std::move(cfg)) {
  if (cfg_.name.empty()) cfg_.name = "child" + std::to_string(cfg_.index);
  if (cfg_.replay_capacity == 0) cfg_.replay_capacity = 1;
  if (cfg_.records_per_frame == 0) cfg_.records_per_frame = 1;
  // First connect attempt happens on the first pump (reconnect_at_ == 0).
}

void ChildNode::pump(common::Timestamp now) {
  if (state_ == State::shut_down) return;
  handle_parent_frames(now);
  if (!link_.connected() && state_ != State::backoff) enter_backoff(now);
  maybe_reconnect(now);
  // Results keep accumulating into the replay buffer while disconnected —
  // that local buffering is what gap replication replays later.
  collect_records(now);
  if (state_ == State::streaming) {
    send_metrics(now);
    send_pending(now);
  }
}

void ChildNode::flush(common::Timestamp now) {
  if (state_ == State::shut_down) return;
  handle_parent_frames(now);
  if (!link_.connected() && state_ != State::backoff) enter_backoff(now);
  maybe_reconnect(now);
  if (state_ == State::streaming) send_pending(now);
}

void ChildNode::shutdown(common::Timestamp now) {
  if (state_ == State::streaming) {
    send(encode(Bye{.child_index = cfg_.index, .final_offset = next_offset_}),
         now);
  }
  state_ = State::shut_down;
}

void ChildNode::drop_connection(common::Timestamp now) {
  if (state_ == State::shut_down) return;
  link_.drop();
  enter_backoff(now);
}

std::uint64_t ChildNode::pending_records_beyond(
    std::uint64_t watermark) const noexcept {
  std::uint64_t n = 0;
  for (const auto& f : replay_) {
    const std::uint64_t end = f.offset + f.count;
    if (end <= watermark) continue;
    n += end - std::max(f.offset, watermark);
  }
  return n;
}

void ChildNode::handle_parent_frames(common::Timestamp now) {
  const auto bytes = link_.drain_down();
  if (!bytes.empty()) parser_.feed(bytes);
  while (auto frame = parser_.next()) {
    switch (frame->type) {
      case MsgType::welcome: {
        const Welcome w = decode_welcome(frame->payload);
        if (w.version != kProtocolVersion || w.child_index != cfg_.index) {
          stats_.handshakes_refused += 1;
          link_.drop();
          enter_backoff(now);
          return;
        }
        acked_ = std::max(acked_, w.high_watermark);
        while (!replay_.empty() &&
               replay_.front().offset + replay_.front().count <= acked_) {
          replay_.pop_front();
        }
        send_from_ = 0;  // gap replication: resend everything unacked
        metrics_resync_ = true;
        backoff_ = 0;
        state_ = State::streaming;
        stats_.reconnects += 1;
        break;
      }
      case MsgType::ack: {
        const Ack a = decode_ack(frame->payload);
        acked_ = std::max(acked_, a.high_watermark);
        while (!replay_.empty() &&
               replay_.front().offset + replay_.front().count <= acked_) {
          replay_.pop_front();
          if (send_from_ > 0) send_from_ -= 1;
        }
        break;
      }
      default:
        break;  // parent never sends the other types; tolerate and skip
    }
  }
}

void ChildNode::maybe_reconnect(common::Timestamp now) {
  if (state_ != State::backoff || now < reconnect_at_) return;
  if (!link_.connect(now)) {
    schedule_retry(now);
    return;
  }
  const Hello hello{.magic = kMagic,
                    .version = kProtocolVersion,
                    .child_index = cfg_.index,
                    .next_offset =
                        replay_.empty() ? next_offset_ : replay_.front().offset,
                    .node_name = cfg_.name};
  if (!send(encode(hello), now)) return;  // send() re-entered backoff
  state_ = State::hello_sent;
}

void ChildNode::collect_records(common::Timestamp now) {
  const auto fresh = query_.results_since(results_cursor_);
  if (fresh.empty()) return;
  results_cursor_ += fresh.size();
  for (std::size_t i = 0; i < fresh.size(); i += cfg_.records_per_frame) {
    const std::size_t n = std::min(cfg_.records_per_frame, fresh.size() - i);
    records_.begin(next_offset_, now);
    for (const stream::Tuple& t : fresh.subspan(i, n)) {
      records_.add(t.values, t.trace);
    }
    replay_.push_back(PendingFrame{.offset = next_offset_,
                                   .count = n,
                                   .sent_once = false,
                                   .bytes = records_.finish()});
    next_offset_ += n;
    stats_.records_streamed += n;
  }
  // Bounded buffer: shed oldest frames, charge the overflow counters. This
  // is the one place federation gives up exactness (reconcile reports it).
  while (replay_.size() > cfg_.replay_capacity) {
    stats_.replay_overflow_frames += 1;
    stats_.replay_overflow_records += replay_.front().count;
    replay_.pop_front();
    if (send_from_ > 0) send_from_ -= 1;
  }
}

void ChildNode::send_metrics(common::Timestamp now) {
  const auto snap = engine_.metrics().snapshot();
  MetricsFrame mf{.tick = now, .counters = {}, .gauges = {}};
  if (metrics_resync_) {
    for (const auto& c : snap.counters) {
      mf.counters.push_back({c.name, c.value});
    }
    for (const auto& g : snap.gauges) mf.gauges.push_back({g.name, g.value});
  } else {
    std::map<std::string_view, std::uint64_t> prev_c;
    for (const auto& c : last_metrics_.counters) prev_c[c.name] = c.value;
    std::map<std::string_view, std::int64_t> prev_g;
    for (const auto& g : last_metrics_.gauges) prev_g[g.name] = g.value;
    for (const auto& c : snap.counters) {
      const auto it = prev_c.find(c.name);
      if (it == prev_c.end() || it->second != c.value) {
        mf.counters.push_back({c.name, c.value});
      }
    }
    for (const auto& g : snap.gauges) {
      const auto it = prev_g.find(g.name);
      if (it == prev_g.end() || it->second != g.value) {
        mf.gauges.push_back({g.name, g.value});
      }
    }
  }
  if (mf.counters.empty() && mf.gauges.empty()) return;
  if (!send(encode(mf), now)) return;
  last_metrics_ = snap;
  metrics_resync_ = false;
  stats_.metrics_frames += 1;
  stats_.frames_sent += 1;
}

void ChildNode::send_pending(common::Timestamp now) {
  while (send_from_ < replay_.size()) {
    PendingFrame& f = replay_[send_from_];
    if (!send(f.bytes, now)) return;
    if (f.sent_once) {
      stats_.frames_replayed += 1;
    } else {
      f.sent_once = true;
      stats_.frames_sent += 1;
    }
    send_from_ += 1;
  }
}

bool ChildNode::send(std::span<const std::byte> bytes, common::Timestamp now) {
  if (link_.send_up(bytes, now)) return true;
  enter_backoff(now);
  return false;
}

void ChildNode::enter_backoff(common::Timestamp now) {
  state_ = State::backoff;
  parser_.reset();  // a new connection restarts at a frame boundary
  schedule_retry(now);
}

void ChildNode::schedule_retry(common::Timestamp now) {
  backoff_ = backoff_ == 0
                 ? cfg_.reconnect_backoff
                 : std::min(backoff_ * 2, cfg_.reconnect_backoff_max);
  reconnect_at_ = now + backoff_;
}

}  // namespace netalytics::fed
