// Test-side seam for the federation differentials: the parent keeps no
// record log, so the full-row multiset proofs read each applied record
// through this friend as the parent applies it. Production code reaches it
// through no configuration field and no public API; without a log the
// parent pays one untaken branch per record.
#pragma once

#include <vector>

#include "fed/parent.hpp"

namespace netalytics::fed {

/// The applied records' fields, per child in offset order — the record
/// log ParentNode no longer keeps.
struct RecordLog {
  using Row = std::vector<nf::FieldValue>;

  std::vector<std::vector<Row>> children;

  const std::vector<Row>& child(std::size_t i) const { return children.at(i); }
  /// Every applied record, children concatenated in index order.
  std::vector<Row> all() const {
    std::vector<Row> out;
    for (const auto& rows : children) out.insert(out.end(), rows.begin(), rows.end());
    return out;
  }
};

struct ParentOracle {
  /// Log every record `parent` applies from now on into `log`, which must
  /// outlive the parent's pumps.
  static void record(ParentNode& parent, RecordLog& log) {
    log.children.resize(parent.slots_.size());
    parent.observer_ = [&log](std::size_t child,
                              std::span<const nf::FieldValue> row) {
      log.children[child].emplace_back(row.begin(), row.end());
    };
  }
};

}  // namespace netalytics::fed
