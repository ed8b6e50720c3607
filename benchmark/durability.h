#ifndef MVCCBENCH_DURABILITY_H_
#define MVCCBENCH_DURABILITY_H_

#include <cstdint>
#include <string>

#include "txn/database.h"
#include "workload.h"

namespace mvccbench {

// The database every run serves: mvccd's defaults (VC-2PL, the kAuto VC
// core, wait-die) with the benchmark's preload.
mvcc::DatabaseOptions ServedDatabaseOptions();

struct DurabilityResult {
  bool opened = false;
  std::string error;             // why the reopen failed
  uint64_t keys_checked = 0;
  uint64_t acked_lost = 0;       // keys whose latest acked write is gone
  uint64_t replayed_batches = 0;
  double reopen_s = 0;           // OpenDatabaseDurable wall time
};

// Reopens the durable database in `dir` (after its server was killed, or
// closed) and checks every acknowledged write: for each key, the write
// with the highest acknowledged tn must be the recovered latest value.
DurabilityResult CheckDurability(const std::string& dir, const AckedMap& acked);

}  // namespace mvccbench

#endif  // MVCCBENCH_DURABILITY_H_
