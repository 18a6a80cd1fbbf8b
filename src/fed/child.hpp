// The child side of federation streaming (docs/FEDERATION.md): wraps one
// NetAlytics engine monitoring a traffic slice and streams its query
// results (RECORDS frames, replicated by record offset) and registry
// state (METRICS frames, absolute values) to the parent over a Link.
//
// Reliability model, rrdpush-lineage:
//   - every collected result is encoded straight into a RECORDS frame
//     (RecordsEncoder), and the frames enter a bounded replay buffer;
//     entries leave only when the parent's cumulative ACK covers them (or
//     the buffer overflows, which is counted, not hidden);
//   - a failed send or a dead link moves the child to reconnecting state:
//     it retries connect() with exponential backoff, re-handshakes
//     (HELLO -> WELCOME), and replays every buffered frame beyond the
//     parent's WELCOME high watermark — gap replication;
//   - frame construction is a deterministic function of the result
//     stream, so a restarted child (fresh ChildNode over the same engine)
//     re-streams byte-compatible data the parent deduplicates exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/netalytics.hpp"
#include "fed/link.hpp"
#include "fed/wire.hpp"

namespace netalytics::fed {

struct ChildConfig {
  std::uint32_t index = 0;
  std::string name;  // defaults to "child<index>"
  std::size_t replay_capacity = 1024;
  std::size_t records_per_frame = 64;
  common::Duration reconnect_backoff = 200 * common::kMillisecond;
  common::Duration reconnect_backoff_max = 2 * common::kSecond;
};

/// Child-side streaming statistics (kept off the engine registry so the
/// metric stream itself quiesces with the traffic).
struct ChildStats {
  std::uint64_t frames_sent = 0;        // first-time RECORDS/METRICS sends
  std::uint64_t frames_replayed = 0;    // gap-replication resends
  std::uint64_t records_streamed = 0;   // distinct records framed (offsets)
  std::uint64_t metrics_frames = 0;
  std::uint64_t reconnects = 0;         // completed handshakes (incl. first)
  std::uint64_t handshakes_refused = 0;
  std::uint64_t replay_overflow_frames = 0;
  std::uint64_t replay_overflow_records = 0;
};

class ChildNode {
 public:
  /// `engine` must outlive the node; `query` must belong to `engine`.
  ChildNode(core::NetAlytics& engine, const core::QueryHandle& query,
            Link& link, ChildConfig cfg);

  /// One streaming round, called after the engine itself was pumped:
  /// process parent frames (WELCOME/ACK), drive reconnect, collect new
  /// results into RECORDS frames, send a METRICS frame when the registry
  /// changed, flush the replay queue.
  void pump(common::Timestamp now);

  /// Like pump(), but creates no new frames: processes parent frames and
  /// (re)sends whatever is already buffered. Federation::settle() uses
  /// this to drain the fleet without minting fresh METRICS deltas.
  void flush(common::Timestamp now);

  /// Send BYE and stop streaming (pump becomes a no-op).
  void shutdown(common::Timestamp now);

  /// Chaos helper: drop the connection right now, as if the transport
  /// RSTed. The normal reconnect path takes over on the next pump.
  void drop_connection(common::Timestamp now);

  // ---- accounting (Federation::reconcile) ------------------------------
  /// True once the handshake completed and streaming is live.
  bool streaming() const noexcept { return state_ == State::streaming; }
  /// Next record offset to be framed == count of records framed so far.
  std::uint64_t next_offset() const noexcept { return next_offset_; }
  /// Highest cumulative ACK received from the parent.
  std::uint64_t acked_watermark() const noexcept { return acked_; }
  /// Records in replay-buffer frames strictly beyond `watermark` — the
  /// unapplied backlog when `watermark` is the parent's applied count.
  std::uint64_t pending_records_beyond(std::uint64_t watermark) const noexcept;
  std::uint64_t pending_frames() const noexcept { return replay_.size(); }
  const ChildStats& stats() const noexcept { return stats_; }
  const ChildConfig& config() const noexcept { return cfg_; }
  const core::NetAlytics& engine() const noexcept { return engine_; }

 private:
  enum class State { backoff, hello_sent, streaming, shut_down };

  struct PendingFrame {
    std::uint64_t offset = 0;   // first record offset
    std::uint64_t count = 0;    // records in the frame
    bool sent_once = false;     // distinguishes first sends from replays
    std::vector<std::byte> bytes;
  };

  void handle_parent_frames(common::Timestamp now);
  void maybe_reconnect(common::Timestamp now);
  void collect_records(common::Timestamp now);
  void send_metrics(common::Timestamp now);
  void send_pending(common::Timestamp now);
  /// Send one encoded frame; on failure, transition to backoff.
  bool send(std::span<const std::byte> bytes, common::Timestamp now);
  void enter_backoff(common::Timestamp now);
  /// Double the backoff (capped) and set the next connect attempt time.
  void schedule_retry(common::Timestamp now);

  core::NetAlytics& engine_;
  const core::QueryHandle& query_;
  Link& link_;
  ChildConfig cfg_;

  State state_ = State::backoff;
  common::Timestamp reconnect_at_ = 0;  // next connect attempt when backoff
  common::Duration backoff_ = 0;
  FrameParser parser_;  // parent -> child stream
  RecordsEncoder records_;  // frames results, reused across frames

  std::size_t results_cursor_ = 0;    // results() consumed so far
  std::uint64_t next_offset_ = 0;     // == records framed so far
  std::uint64_t acked_ = 0;
  std::deque<PendingFrame> replay_;
  /// Index into replay_ of the first frame not yet sent on the current
  /// connection; WELCOME rewinds it (gap replication).
  std::size_t send_from_ = 0;

  /// Last registry values successfully framed (absolute); a reconnect
  /// clears it so the next METRICS frame is a full resync.
  common::MetricsSnapshot last_metrics_;
  bool metrics_resync_ = true;

  ChildStats stats_;
};

}  // namespace netalytics::fed
