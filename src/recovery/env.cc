#include "recovery/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace mvcc {

namespace {

std::string ErrnoMessage(const char* op, const std::string& path, int err) {
  return std::string(op) + " " + path + ": " + std::strerror(err);
}

// ENOSPC (and quota exhaustion) is the one recoverable storage error:
// deleting data frees space and writes can resume. Everything else that
// reaches the durability layer means bytes we believed written may be
// gone — fail-stop.
Status ErrnoStatus(const char* op, const std::string& path, int err) {
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(ErrnoMessage(op, path, err));
  }
  return Status::DataLoss(ErrnoMessage(op, path, err));
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Writes all of `data` at *offset with pwrite, advancing *offset past
// every byte that landed (a partial group may already be on disk when
// this fails: the caller — the WAL — truncates back to the last record
// boundary).
Status PwriteAll(int fd, const std::string& path, std::string_view data,
                 uint64_t* offset) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::pwrite(fd, p, left, static_cast<off_t>(*offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path, errno);
    }
    p += n;
    left -= static_cast<size_t>(n);
    *offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, uint64_t offset)
      : path_(std::move(path)), fd_(fd), offset_(offset) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    return PwriteAll(fd_, path_, data, &offset_);
  }

  Status Sync() override {
    if (sync_failed_) {
      // fsyncgate: the kernel cleared the dirty/error state on the
      // first failure; a later fdatasync returning 0 would not prove
      // those pages reached disk. Stay failed forever.
      return Status::DataLoss("fdatasync " + path_ +
                              ": previous sync failed; data unverifiable");
    }
    if (::fdatasync(fd_) != 0) {
      sync_failed_ = true;
      return ErrnoStatus("fdatasync", path_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_, errno);
    return Status::OK();
  }

  uint64_t offset() const override { return offset_; }

 private:
  std::string path_;
  int fd_;
  uint64_t offset_;
  bool sync_failed_ = false;
};

class PosixEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) return ErrnoStatus("open", path, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("fstat", path, err);
    }
    return std::unique_ptr<WritableFile>(std::make_unique<PosixWritableFile>(
        path, fd, static_cast<uint64_t>(st.st_size)));
  }

  Result<std::unique_ptr<WritableFile>> NewPreparedFile(
      const std::string& path, std::string_view header,
      uint64_t size) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open", path, errno);
    // Real zeros, not fallocate: an unwritten extent would still cost a
    // journal commit on its first write. They come from one static block,
    // so a rotation allocates no segment-sized image.
    static constexpr char kZeros[64 * 1024] = {};
    uint64_t written = 0;
    Status s = PwriteAll(fd, path, header, &written);
    while (s.ok() && written < size) {
      const uint64_t n = std::min<uint64_t>(size - written, sizeof(kZeros));
      s = PwriteAll(fd, path, std::string_view(kZeros, n), &written);
    }
    if (s.ok() && ::fdatasync(fd) != 0) {
      s = ErrnoStatus("fdatasync", path, errno);
    }
    if (s.ok()) s = SyncDir(ParentDir(path));
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(path, fd, header.size()));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("open", path, errno));
      }
      return ErrnoStatus("open", path, errno);
    }
    std::string out;
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        return ErrnoStatus("read", path, err);
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("stat", path, errno));
      }
      return ErrnoStatus("stat", path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("opendir", dir, errno));
      }
      return ErrnoStatus("opendir", dir, errno);
    }
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("unlink", path, errno));
      }
      return ErrnoStatus("unlink", path, errno);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate", path, errno);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir", dir, errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return ErrnoStatus("open(dir)", dir, errno);
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("fsync(dir)", dir, err);
    }
    if (::close(fd) != 0) return ErrnoStatus("close(dir)", dir, errno);
    return Status::OK();
  }
};

}  // namespace

Result<std::unique_ptr<WritableFile>> Env::NewPreparedFile(
    const std::string& path, std::string_view header, uint64_t /*size*/) {
  auto file = NewAppendableFile(path);
  if (!file.ok()) return file.status();
  Status s = (*file)->Append(header);
  if (s.ok()) s = (*file)->Sync();
  if (s.ok()) s = SyncDir(ParentDir(path));
  if (!s.ok()) {
    (*file)->Close();
    return s;
  }
  return file;
}

Env* GetPosixEnv() {
  static PosixEnv* env = new PosixEnv();  // never deleted
  return env;
}

std::string EnvParentDir(const std::string& path) { return ParentDir(path); }

}  // namespace mvcc
