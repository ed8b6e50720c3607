#ifndef MVCC_RECOVERY_ENV_H_
#define MVCC_RECOVERY_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mvcc {

// A file handle the durability layer writes records through. Append()
// writes `data` at offset() and advances it: at the end of the file for
// NewAppendableFile, in place inside the pre-sized file NewPreparedFile
// made. Nothing is durable until Sync() returns OK. Implementations
// report ENOSPC as kResourceExhausted and I/O errors as kDataLoss — the
// two failure policies the commit pipeline distinguishes (degrade vs
// fail-stop).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::string_view data) = 0;

  // fdatasync: the data and the metadata needed to read it back (the
  // file size) are on disk when this returns OK. A failed Sync is NEVER
  // retried by callers (fsyncgate semantics: after a failed sync the
  // kernel may have dropped the dirty pages, so a later "successful"
  // sync proves nothing about this data). Implementations may fail
  // every later call once one Sync has failed.
  virtual Status Sync() = 0;

  virtual Status Close() = 0;

  // The position the next Append writes at: the bytes successfully
  // written through this handle so far, plus where it started (not
  // necessarily durable).
  virtual uint64_t offset() const = 0;
};

// File-system abstraction under the recovery/durability layer, in the
// style of LevelDB's Env: the real PosixEnv talks to the actual disk,
// and FaultyEnv (faulty_env.h) decorates any Env with deterministic
// fault injection. Everything that must survive a crash — WAL segments,
// checkpoint generations — goes through an Env, never through direct
// stdio, so every syscall is a fault point the tests can enumerate.
class Env {
 public:
  virtual ~Env() = default;

  // Opens `path` for appending, creating it if missing. The returned
  // handle's offset() starts at the current file size.
  virtual Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;

  // Creates `path` as a prepared file: `header`, then zeros up to `size`
  // bytes, synced together with its directory entry before this
  // returns. The handle writes in place from offset() == header.size(),
  // so appends below `size` change neither the file's size nor its
  // block allocation, and the Sync after them commits no file-system
  // journal. The default writes the header alone through
  // NewAppendableFile + Append + Sync + SyncDir: correct on any Env,
  // only without the cheaper syncs. On error a partial file may remain;
  // the caller deletes it.
  virtual Result<std::unique_ptr<WritableFile>> NewPreparedFile(
      const std::string& path, std::string_view header, uint64_t size);

  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  // Plain file names (no directories), unsorted.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual Status CreateDirIfMissing(const std::string& dir) = 0;

  // fsync of the directory itself: makes renames/creates/unlinks in it
  // durable (a rename without a directory sync can vanish on power
  // loss).
  virtual Status SyncDir(const std::string& dir) = 0;
};

// The process-wide POSIX environment (positional pwrite handles,
// fdatasync of files, fsync of directories). Never deleted.
Env* GetPosixEnv();

// Directory component of `path` ("." when there is none) — for the
// SyncDir-after-create/rename pattern.
std::string EnvParentDir(const std::string& path);

}  // namespace mvcc

#endif  // MVCC_RECOVERY_ENV_H_
