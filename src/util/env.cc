#include "src/util/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace dmx {

namespace {

Status PosixError(const std::string& context, int err) {
  std::string msg = context + ": " + strerror(err);
  switch (err) {
    // Conditions that clear on their own (space freed, pressure passes):
    // worth a bounded retry at the RetryingEnv layer. EINTR never gets
    // here — the read/write loops resume it inline.
    case ENOSPC:
    case EDQUOT:
    case EAGAIN:
    case EBUSY:
    case ENOMEM:
      return Status::RetryableIOError(std::move(msg));
    default:
      return Status::IOError(std::move(msg));
  }
}

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* out_n) override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, scratch + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;  // interrupted: resume
        return PosixError("pread '" + path_ + "'", errno);
      }
      if (r == 0) break;  // end of file
      done += static_cast<size_t>(r);
    }
    *out_n = done;
    return Status::OK();
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    size_t done = 0;
    while (done < n) {
      ssize_t w = ::pwrite(fd_, data + done, n - done,
                           static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;  // interrupted: resume
        return PosixError("pwrite '" + path_ + "'", errno);
      }
      done += static_cast<size_t>(w);  // short write: resume the rest
    }
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return PosixError("ftruncate '" + path_ + "'", errno);
    }
    return Status::OK();
  }

  Status Sync(bool data_only) override {
    int r = data_only ? ::fdatasync(fd_) : ::fsync(fd_);
    if (r != 0) return PosixError("fsync '" + path_ + "'", errno);
    return Status::OK();
  }

  Status Size(uint64_t* out) override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return PosixError("fstat '" + path_ + "'", errno);
    }
    *out = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return PosixError("close '" + path_ + "'", errno);
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  Status NewRandomAccessFile(const std::string& path, bool create,
                             std::unique_ptr<RandomAccessFile>* out) override {
    int flags = O_RDWR;
    if (create) flags |= O_CREAT;
    int fd;
    do {
      fd = ::open(path.c_str(), flags, 0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return PosixError("open '" + path + "'", errno);
    *out = std::make_unique<PosixRandomAccessFile>(path, fd);
    return Status::OK();
  }

  Status FileExists(const std::string& path) override {
    if (::access(path.c_str(), F_OK) == 0) return Status::OK();
    return Status::NotFound("'" + path + "' does not exist");
  }

  Status GetFileSize(const std::string& path, uint64_t* out) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound("'" + path + "'");
      return PosixError("stat '" + path + "'", errno);
    }
    *out = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("'" + path + "'");
      return PosixError("unlink '" + path + "'", errno);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename '" + from + "' -> '" + to + "'", errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError("mkdir '" + path + "'", errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return PosixError("open dir '" + path + "'", errno);
    int r = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (r != 0) return PosixError("fsync dir '" + path + "'", saved);
    return Status::OK();
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* out) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      if (errno == ENOENT) return Status::NotFound("'" + path + "'");
      return PosixError("opendir '" + path + "'", errno);
    }
    errno = 0;
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") out->push_back(name);
      errno = 0;
    }
    int saved = errno;
    ::closedir(dir);
    if (saved != 0) return PosixError("readdir '" + path + "'", saved);
    return Status::OK();
  }

  Status LinkOrCopyFile(const std::string& from,
                        const std::string& to) override {
    if (::link(from.c_str(), to.c_str()) == 0) return Status::OK();
    if (errno == ENOENT || errno == EEXIST) {
      return PosixError("link '" + from + "' -> '" + to + "'", errno);
    }
    // EXDEV / EPERM / EMLINK / filesystems without hard links: real copy.
    return Env::LinkOrCopyFile(from, to);
  }
};

}  // namespace

Status Env::ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  DMX_RETURN_IF_ERROR(FileExists(path));
  std::unique_ptr<RandomAccessFile> file;
  DMX_RETURN_IF_ERROR(NewRandomAccessFile(path, /*create=*/false, &file));
  uint64_t size;
  DMX_RETURN_IF_ERROR(file->Size(&size));
  out->resize(size);
  size_t got = 0;
  DMX_RETURN_IF_ERROR(file->Read(0, size, out->data(), &got));
  if (got != size) {
    return Status::IOError("short read of '" + path + "'");
  }
  return Status::OK();
}

Status Env::WriteFileAtomic(const std::string& path, const Slice& data) {
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<RandomAccessFile> file;
    DMX_RETURN_IF_ERROR(NewRandomAccessFile(tmp, /*create=*/true, &file));
    DMX_RETURN_IF_ERROR(file->Truncate(0));
    DMX_RETURN_IF_ERROR(file->Write(0, data.data(), data.size()));
    DMX_RETURN_IF_ERROR(file->Sync(/*data_only=*/false));
    DMX_RETURN_IF_ERROR(file->Close());
  }
  DMX_RETURN_IF_ERROR(RenameFile(tmp, path));
  return SyncDir(DirnameOf(path));
}

Status Env::LinkOrCopyFile(const std::string& from, const std::string& to) {
  if (FileExists(to).ok()) {
    return Status::IOError("copy target '" + to + "' already exists");
  }
  std::unique_ptr<RandomAccessFile> src;
  DMX_RETURN_IF_ERROR(NewRandomAccessFile(from, /*create=*/false, &src));
  uint64_t size = 0;
  DMX_RETURN_IF_ERROR(src->Size(&size));
  std::unique_ptr<RandomAccessFile> dst;
  DMX_RETURN_IF_ERROR(NewRandomAccessFile(to, /*create=*/true, &dst));
  DMX_RETURN_IF_ERROR(dst->Truncate(0));
  constexpr size_t kChunk = 1 << 16;
  std::string buf(kChunk, '\0');
  for (uint64_t off = 0; off < size;) {
    const size_t want = static_cast<size_t>(
        size - off < kChunk ? size - off : kChunk);
    size_t got = 0;
    DMX_RETURN_IF_ERROR(src->Read(off, want, buf.data(), &got));
    if (got == 0) return Status::IOError("short read copying '" + from + "'");
    DMX_RETURN_IF_ERROR(dst->Write(off, buf.data(), got));
    off += got;
  }
  DMX_RETURN_IF_ERROR(dst->Sync(/*data_only=*/false));
  DMX_RETURN_IF_ERROR(dst->Close());
  return src->Close();
}

std::string DirnameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string BasenameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // leaked singleton
  return env;
}

}  // namespace dmx
