#include "src/wal/wal_format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace dmx {

namespace {

uint32_t FrameCrc(uint32_t gen, Slice body) {
  char g[4];
  memcpy(g, &gen, 4);
  return Crc32cExtend(Crc32c(g, 4), body.data(), body.size());
}

}  // namespace

void EncodeWalFrame(uint32_t gen, Slice body, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  PutFixed32(out, FrameCrc(gen, body));
  out->append(body.data(), body.size());
}

const char* WalFrameProblem(WalFrameStatus status) {
  static const char* const kText[] = {
      "valid frame",             "end of frames",
      "truncated frame header",  "truncated frame body",
      "frame checksum mismatch", "frame of an older generation"};
  return kText[static_cast<size_t>(status)];
}

WalFrame DecodeWalFrame(Slice bytes, size_t pos, uint32_t gen) {
  using S = WalFrameStatus;
  WalFrame f;
  f.next = pos;
  const size_t left = bytes.size() - pos;
  if (left < kFrameHeaderSize) {
    f.status = left == 0 ? S::kEnd : S::kShortHeader;
    return f;
  }
  const uint32_t len = DecodeFixed32(bytes.data() + pos);
  if (len == 0 || len > left - kFrameHeaderSize) {
    f.status = S::kShortBody;
    return f;
  }
  const uint32_t crc = DecodeFixed32(bytes.data() + pos + 4);
  f.body = Slice(bytes.data() + pos + kFrameHeaderSize, len);
  f.next = pos + kFrameHeaderSize + len;
  f.status = crc == FrameCrc(gen, f.body) ? S::kOk : S::kBadCrc;
  for (uint32_t back = 1; f.status == S::kBadCrc && back <= 8 && back < gen;
       ++back) {
    if (crc == FrameCrc(gen - back, f.body)) f.status = S::kStaleCrc;
  }
  return f;
}

WalFrameReader::WalFrameReader(RandomAccessFile* file, uint64_t begin,
                               uint64_t end, uint32_t gen, size_t window)
    : file_(file),
      end_(end),
      gen_(gen),
      window_size_(std::max(window, kFrameHeaderSize)),
      window_off_(begin) {}

Status WalFrameReader::Next(WalFrame* frame) {
  // Until the window holds the whole frame at pos_ or reaches end_, slide
  // it there, sized for this frame when the frame is the larger.
  while (window_off_ + window_.size() < end_) {
    const size_t left = window_.size() - pos_;
    size_t want = window_size_;
    if (left >= kFrameHeaderSize) {
      const size_t frame_size =
          kFrameHeaderSize + DecodeFixed32(window_.data() + pos_);
      if (frame_size <= left) break;
      want = std::max(want, frame_size);
    }
    window_off_ += pos_;
    pos_ = 0;
    window_.resize(
        static_cast<size_t>(std::min<uint64_t>(want, end_ - window_off_)));
    size_t got = 0;
    DMX_RETURN_IF_ERROR(
        file_->Read(window_off_, window_.size(), window_.data(), &got));
    if (got != window_.size()) {
      return Status::IOError("short wal read at offset " +
                             std::to_string(window_off_ + got));
    }
  }
  *frame = DecodeWalFrame(window_, pos_, gen_);
  if (frame->status == WalFrameStatus::kOk) pos_ = frame->next;
  frame->next += window_off_;
  return Status::OK();
}

void EncodeLiveHeader(Lsn base_lsn, uint32_t gen, std::string* out) {
  const size_t start = out->size();
  PutFixed32(out, kLogMagic);
  PutFixed64(out, base_lsn);
  PutFixed32(out, gen);
  PutFixed32(out, Crc32c(out->data() + start, 16));
  PutFixed32(out, 0);  // pad to kLogHeaderSize
}

Status DecodeLiveHeader(const char* buf, Lsn* base_lsn, uint32_t* gen) {
  if (DecodeFixed32(buf) != kLogMagic) {
    return Status::Corruption("bad log magic");
  }
  if (DecodeFixed32(buf + 16) != Crc32c(buf, 16)) {
    return Status::Corruption("log header checksum mismatch");
  }
  *base_lsn = DecodeFixed64(buf + 4);
  *gen = DecodeFixed32(buf + 12);
  return Status::OK();
}

void EncodeSegmentHeader(const SegmentHeader& hdr, std::string* out) {
  const size_t start = out->size();
  PutFixed32(out, kSegMagic);
  PutFixed32(out, hdr.seqno);
  PutFixed64(out, hdr.base_lsn);
  PutFixed64(out, hdr.end_lsn);
  PutFixed32(out, hdr.gen);
  PutFixed32(out, Crc32c(out->data() + start, 28));
  PutFixed64(out, 0);  // pad to kSegHeaderSize
}

Status DecodeSegmentHeader(const char* buf, SegmentHeader* out) {
  if (DecodeFixed32(buf) != kSegMagic) {
    return Status::Corruption("bad wal segment magic");
  }
  if (DecodeFixed32(buf + 28) != Crc32c(buf, 28)) {
    return Status::Corruption("wal segment header checksum mismatch");
  }
  out->seqno = DecodeFixed32(buf + 4);
  out->base_lsn = DecodeFixed64(buf + 8);
  out->end_lsn = DecodeFixed64(buf + 16);
  out->gen = DecodeFixed32(buf + 24);
  if (out->end_lsn < out->base_lsn) {
    return Status::Corruption("wal segment header lsn range inverted");
  }
  return Status::OK();
}

std::string SegmentFileName(const std::string& wal_basename, uint32_t seqno) {
  char suffix[24];
  snprintf(suffix, sizeof(suffix), ".%06u.seg", seqno);
  return wal_basename + suffix;
}

bool ParseSegmentName(const std::string& name, const std::string& wal_basename,
                      uint32_t* seqno) {
  // `<basename>.<digits>.seg`
  const std::string prefix = wal_basename + ".";
  const std::string suffix = ".seg";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() || digits.size() > 9) return false;
  uint32_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  *seqno = value;
  return true;
}

Status ScanWalFrames(RandomAccessFile* file, uint64_t begin, uint64_t end,
                     uint32_t gen, bool tail_ok, const std::string& path,
                     const std::function<Status(uint64_t, Slice)>& fn,
                     uint64_t* stop) {
  WalFrameReader reader(file, begin, end, gen);
  WalFrame frame;
  while (true) {
    const uint64_t at = reader.offset();
    DMX_RETURN_IF_ERROR(reader.Next(&frame));
    if (frame.status == WalFrameStatus::kEnd) break;
    if (frame.status != WalFrameStatus::kOk) {
      if (tail_ok && (frame.status != WalFrameStatus::kBadCrc ||
                      frame.next == end)) {
        break;
      }
      return Status::Corruption(std::string("wal ") +
                                WalFrameProblem(frame.status) + " at offset " +
                                std::to_string(at) + " in '" + path + "'");
    }
    DMX_RETURN_IF_ERROR(fn(at, frame.body));
  }
  *stop = reader.offset();
  return Status::OK();
}

Status ReadSegmentHeader(Env* env, const std::string& path,
                         SegmentHeader* out) {
  std::unique_ptr<RandomAccessFile> file;
  DMX_RETURN_IF_ERROR(env->NewRandomAccessFile(path, /*create=*/false, &file));
  char hdr[kSegHeaderSize];
  size_t n = 0;
  Status s = file->Read(0, kSegHeaderSize, hdr, &n);
  // Read-only header probe; the read status is the outcome.
  (void)file->Close();
  DMX_RETURN_IF_ERROR(s);
  if (n != kSegHeaderSize) {
    return Status::Corruption("wal segment '" + path +
                              "' shorter than header");
  }
  s = DecodeSegmentHeader(hdr, out);
  return s.ok() ? s : Status::Corruption(s.message() + " in '" + path + "'");
}

Status VerifySegmentFile(Env* env, const std::string& path,
                         SegmentHeader* out) {
  SegmentHeader parsed;
  DMX_RETURN_IF_ERROR(ReadSegmentHeader(env, path, &parsed));
  std::unique_ptr<RandomAccessFile> file;
  DMX_RETURN_IF_ERROR(env->NewRandomAccessFile(path, /*create=*/false, &file));
  uint64_t size = 0;
  Status s = file->Size(&size);
  if (s.ok() &&
      size != kSegHeaderSize + (parsed.end_lsn - parsed.base_lsn)) {
    s = Status::Corruption("wal segment '" + path +
                           "' length disagrees with its header");
  }
  uint64_t stop = 0;
  if (s.ok()) {
    s = ScanWalFrames(file.get(), kSegHeaderSize, size, parsed.gen,
                      /*tail_ok=*/false, path,
                      [](uint64_t, Slice) { return Status::OK(); }, &stop);
  }
  Status c = file->Close();
  if (!s.ok()) return s;
  DMX_RETURN_IF_ERROR(c);
  if (out != nullptr) *out = parsed;
  return Status::OK();
}

}  // namespace dmx
