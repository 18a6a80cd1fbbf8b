#include "nf/output.hpp"

#include <algorithm>

namespace netalytics::nf {

OutputInterface::OutputInterface(BatchSink sink, std::size_t batch_records)
    : sink_(std::move(sink)),
      batch_records_(batch_records == 0 ? 1 : batch_records) {}

void OutputInterface::emit(const RecordView& record) {
  // Only the owning worker writes: a plain store keeps the count readable
  // from other threads without a locked add per record.
  emitted_.store(emitted_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  OpenBatch& batch = open_batch(record.topic);
  RecordView traced = record;
  if (traced.trace == 0) traced.trace = current_trace_;
  batch.records.add(traced);
  batch.timestamps.push_back(record.timestamp);
  if (batch.records.size() >= batch_records_) {
    // A full batch ships immediately, so the record that tipped it over is
    // the freshest timestamp we have — that is the ship time in virtual runs
    // (unless a tick flush set the clock).
    ship(batch, tick_time_ != 0 ? tick_time_ : record.timestamp);
  }
}

OutputInterface::OpenBatch& OutputInterface::open_batch(std::string_view topic) {
  const auto it = std::lower_bound(
      pending_.begin(), pending_.end(), topic,
      [](const OpenBatch& b, std::string_view t) { return b.topic < t; });
  if (it != pending_.end() && it->topic == topic) return *it;
  return *pending_.insert(it, OpenBatch{std::string(topic), BatchEncoder(topic), {}});
}

void OutputInterface::flush(common::Timestamp now) {
  for (OpenBatch& batch : pending_) {
    if (!batch.records.empty()) ship(batch, now);
  }
}

void OutputInterface::ship(OpenBatch& batch, common::Timestamp ship_time) {
  auto payload = batch.records.encode();
  const std::size_t records = batch.records.size();
  records_.fetch_add(records, std::memory_order_relaxed);
  bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (records_ctr_ != nullptr) records_ctr_->inc(records);
  if (bytes_ctr_ != nullptr) bytes_ctr_->inc(payload.size());
  if (batches_ctr_ != nullptr) batches_ctr_->inc();
  if (tracer_ != nullptr && ship_time != 0) {
    tracer_->stamp_batch(common::StageTracer::Stage::emit, ship_time,
                         batch.timestamps);
  }
  trace_scratch_.clear();
  for (const auto& [index, trace] : batch.records.traces()) {
    trace_scratch_.push_back(trace);
    if (recorder_ != nullptr) {
      const common::Timestamp ts = batch.timestamps[index];
      recorder_->stamp(trace, common::TraceStage::emit, ts,
                       ship_time != 0 ? ship_time : ts);
    }
  }
  BatchInfo info;
  info.records = records;
  info.ship_time = ship_time;
  info.traces = trace_scratch_;
  sink_(batch.topic, std::move(payload), info);
  batch.records.clear();
  batch.timestamps.clear();
}

}  // namespace netalytics::nf
