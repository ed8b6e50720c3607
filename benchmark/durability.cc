#include "durability.h"

#include "common/clock.h"
#include "recovery/recovery.h"

namespace mvccbench {

mvcc::DatabaseOptions ServedDatabaseOptions() {
  mvcc::DatabaseOptions opts;
  opts.protocol = mvcc::ProtocolKind::kVc2pl;
  opts.preload_keys = kPreloadKeys;
  opts.initial_value = PreloadValue();
  return opts;
}

DurabilityResult CheckDurability(const std::string& dir,
                                 const AckedMap& acked) {
  DurabilityResult result;
  // The preload is not logged (recovery re-creates it from the options),
  // and only logged writes are checked, so the reopen skips it.
  mvcc::DatabaseOptions opts = ServedDatabaseOptions();
  opts.preload_keys = 0;
  mvcc::RecoveryReport report;
  const int64_t start = mvcc::NowNanos();
  auto db = mvcc::OpenDatabaseDurable(opts, mvcc::GetPosixEnv(), dir,
                                      mvcc::WalDurableOptions{}, &report);
  result.reopen_s = static_cast<double>(mvcc::NowNanos() - start) / 1e9;
  if (!db.ok()) {
    result.error = db.status().ToString();
    return result;
  }
  result.opened = true;
  result.replayed_batches = report.replayed_batches;
  auto reader = (*db)->Begin(mvcc::TxnClass::kReadOnly);
  for (const auto& [key, ack] : acked) {
    ++result.keys_checked;
    mvcc::Result<mvcc::Value> v = reader->Read(key);
    if (!v.ok() || *v != TagValue(ack.conn, ack.seq)) ++result.acked_lost;
  }
  reader->Commit();
  return result;
}

}  // namespace mvccbench
