#ifndef MVCC_RECOVERY_FAULTY_ENV_H_
#define MVCC_RECOVERY_FAULTY_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "recovery/env.h"

namespace mvcc {

// The storage faults FaultyEnv can inject at a mutating syscall.
enum class FaultKind {
  kNone,
  kEio,        // the syscall fails with an I/O error (-> kDataLoss)
  kEnospc,     // the syscall fails with disk-full (-> kResourceExhausted)
  kTornWrite,  // an append persists only a prefix, then fails
  kBitFlip,    // an append persists fully but with one bit corrupted
  kCrash,      // the process "dies" at this syscall: it and everything
               // later never reach the disk; all further ops fail
};

// Deterministic fault-injecting decorator over any Env — the storage
// analogue of the simulated network's message dropper. Every mutating
// syscall (append, sync, rename, delete, truncate, dir-sync, and a
// prepared file's header write, zero fill, sync and dir-sync) gets a
// global 0-based index in execution order; faults are placed either
// explicitly via FailAt(index, kind) or by the installed SimHook's
// OnEnvOp(op, index) fault query, which lets the schedule explorer
// enumerate crash placements exhaustively. Read-side calls are passed
// through unfaulted (recovery itself is exercised against the bytes the
// faults left behind, not re-faulted).
//
// The decorator also models a finite disk: with set_capacity_bytes(n),
// appends and zero fills beyond n bytes of live data fail with ENOSPC
// (a prepared file is charged its full size when filled, so records
// written into it cost nothing more), and deletes credit their file's
// size back — which is exactly the checkpoint-truncation path the
// degraded mode relies on.
//
// Thread-safe; the WAL calls it under its own mutex and the fault query
// never yields (see SimHook::OnEnvOp).
class FaultyEnv final : public Env {
 public:
  explicit FaultyEnv(Env* base);

  // Arms `kind` at the Nth mutating syscall (absolute index, 0-based).
  // Multiple placements may be armed; kCrash is sticky — every syscall
  // after it fails too.
  void FailAt(uint64_t index, FaultKind kind);

  // Arms `kind` at the Nth syscall whose op name equals `op`
  // ("append", "sync", "rename", ...), counted separately per op.
  void FailAtOp(const std::string& op, uint64_t nth, FaultKind kind);

  // Finite-disk model. 0 = unlimited (default).
  void set_capacity_bytes(uint64_t bytes);

  // Total mutating syscalls seen so far — run a workload once with no
  // faults armed to size a crash matrix.
  uint64_t op_count() const;
  // Live bytes charged against capacity.
  uint64_t used_bytes() const;
  bool crashed() const;
  // Clears crash state and armed faults (capacity and indices keep
  // counting) so a test can "restart the process" over the same dir.
  void ClearFaults();

  // ---- Env ----
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewPreparedFile(
      const std::string& path, std::string_view header,
      uint64_t size) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status CreateDirIfMissing(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

 private:
  friend class FaultyWritableFile;

  // Assigns the next op index and resolves the fault to inject at it
  // (explicit placements first, then the SimHook crash query).
  FaultKind NextOp(const char* op);
  void ChargeBytes(const std::string& path, uint64_t n);
  void CreditFile(const std::string& path);
  bool OverCapacity(uint64_t extra) const;  // takes mu_ itself

  Env* const base_;
  mutable std::mutex mu_;
  uint64_t next_index_ = 0;
  std::map<uint64_t, FaultKind> by_index_;
  std::map<std::string, std::map<uint64_t, FaultKind>> by_op_;
  std::map<std::string, uint64_t> op_counts_;
  bool crashed_ = false;
  uint64_t capacity_bytes_ = 0;
  uint64_t used_bytes_ = 0;
  std::map<std::string, uint64_t> file_bytes_;
};

}  // namespace mvcc

#endif  // MVCC_RECOVERY_FAULTY_ENV_H_
