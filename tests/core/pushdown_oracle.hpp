// Test-side seam for the pushdown differential: the unpushed plan of a
// query (monitors ship raw records, the topology filters and folds them)
// is the oracle its pushed plan must match. Engines reach it only through
// this friend, never through a configuration field or query syntax.
#pragma once

#include "core/netalytics.hpp"

namespace netalytics::core {

struct PushdownOracle {
  /// Queries submitted to `engine` from now on run their unpushed plan.
  static void disable(NetAlytics& engine) { engine.pushdown_ = false; }
};

}  // namespace netalytics::core
