// The on-disk WAL format in one place (headers, frame codec, frame reader),
// shared by the LogManager, the archiver, backup and dmx_backup_verify. A
// caller only decides what a defect the reader reports means.
//
// Live log file:
//   header (24 bytes): u32 magic "DMXL" | u64 base_lsn | u32 generation |
//                      u32 crc of the preceding 16 bytes | u32 pad
//   frames:            u32 length | u32 crc | body
//
// Sealed segment file (`<wal>.NNNNNN.seg`, produced by LogManager::Rotate):
//   header (40 bytes): u32 magic "DMXS" | u32 seqno | u64 base_lsn |
//                      u64 end_lsn | u32 generation |
//                      u32 crc of the preceding 28 bytes | u64 pad
//   frames:            copied verbatim from the live log; their crcs carry
//                      the generation recorded in the segment header
//
// A frame's crc is a CRC32C over the owning generation number followed by
// the body, so a reader can tell a stale pre-truncation frame (its crc
// matches an older generation) from genuine damage.
//
// A segment's frames cover the LSN range (base_lsn, end_lsn]; the frame at
// body offset `pos` has LSN base_lsn + pos + 1 — the same arithmetic as the
// live file, so a sealed segment is simply a frozen prefix of history.

#ifndef DMX_WAL_WAL_FORMAT_H_
#define DMX_WAL_WAL_FORMAT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/util/common.h"
#include "src/util/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {

constexpr size_t kLogHeaderSize = 24;
constexpr size_t kFrameHeaderSize = 8;       // u32 length | u32 crc
constexpr uint32_t kLogMagic = 0x444D584C;   // "DMXL"
constexpr size_t kSegHeaderSize = 40;
constexpr uint32_t kSegMagic = 0x444D5853;   // "DMXS"

/// Append one frame — u32 length | u32 crc(gen, body) | body — to `*out`.
void EncodeWalFrame(uint32_t gen, Slice body, std::string* out);

/// What DecodeWalFrame found at a position.
enum class WalFrameStatus : uint8_t {
  kOk,           // a whole frame whose crc matches the generation
  kEnd,          // no bytes left: the frames ended on a frame boundary
  kShortHeader,  // fewer bytes left than a frame header
  kShortBody,    // the length runs past the bytes, or is 0 (zero fill)
  kBadCrc,       // a whole frame whose crc matches no recent generation
  kStaleCrc,     // ... matches one of the 8 previous generations
};

/// A short description of a defect, for error messages.
const char* WalFrameProblem(WalFrameStatus status);

struct WalFrame {
  WalFrameStatus status = WalFrameStatus::kEnd;
  Slice body;         // set for kOk, kBadCrc and kStaleCrc
  uint64_t next = 0;  // just past the frame; at the frame when it is cut off
};

/// Decode the frame that starts at `bytes[pos]` under generation `gen`.
WalFrame DecodeWalFrame(Slice bytes, size_t pos, uint32_t gen);

/// Reads the frames of the byte range [begin, end) of a file through a
/// window of `window` bytes, so a scan holds one window of the log rather
/// than all of it. A frame larger than the window grows the window to that
/// frame only; kPointRead reads exactly one frame. The file must hold
/// `end` bytes: a short read is an IOError, while a frame that runs past
/// `end` decodes as kShortHeader or kShortBody.
class WalFrameReader {
 public:
  static constexpr size_t kScanWindow = 64 << 10;
  static constexpr size_t kPointRead = 0;

  WalFrameReader(RandomAccessFile* file, uint64_t begin, uint64_t end,
                 uint32_t gen, size_t window = kScanWindow);

  /// Decode the frame at offset(). kOk moves offset() past it. The body
  /// stays valid until the next call; `next` is a file offset.
  Status Next(WalFrame* frame);

  /// File offset of the frame the next call decodes.
  uint64_t offset() const { return window_off_ + pos_; }

 private:
  RandomAccessFile* file_;
  const uint64_t end_;
  const uint32_t gen_;
  const size_t window_size_;
  std::string window_;
  uint64_t window_off_;  // file offset of window_[0]
  size_t pos_ = 0;       // offset() - window_off_
};

/// Append the kLogHeaderSize-byte live-log header for an empty-or-resumed
/// log with the given base LSN and generation. Restore materializes the
/// tail of a reconstructed WAL chain as a live file with this.
void EncodeLiveHeader(Lsn base_lsn, uint32_t gen, std::string* out);

/// Decode a live-log header (magic + checksum verified).
Status DecodeLiveHeader(const char* buf, Lsn* base_lsn, uint32_t* gen);

/// Parsed segment header.
struct SegmentHeader {
  uint32_t seqno = 0;
  Lsn base_lsn = 0;  // frames cover (base_lsn, end_lsn]
  Lsn end_lsn = 0;
  uint32_t gen = 0;

  bool operator==(const SegmentHeader&) const = default;
};

/// Append the kSegHeaderSize-byte encoding of `hdr` to `*out`.
void EncodeSegmentHeader(const SegmentHeader& hdr, std::string* out);

/// Decode a segment header from `buf` (must hold kSegHeaderSize bytes).
/// Corruption on bad magic or checksum.
Status DecodeSegmentHeader(const char* buf, SegmentHeader* out);

/// Read and decode the header of the segment file at `path`. Corruption
/// when the file is shorter than a header or the header is bad.
Status ReadSegmentHeader(Env* env, const std::string& path,
                         SegmentHeader* out);

/// `<wal_basename>.NNNNNN.seg` for seqno NNNNNN.
std::string SegmentFileName(const std::string& wal_basename, uint32_t seqno);

/// True (and sets *seqno) when `name` is a segment of the named live log.
bool ParseSegmentName(const std::string& name, const std::string& wal_basename,
                      uint32_t* seqno);

/// Calls `fn(offset, body)` for each frame in [begin, end) of `file`, read
/// through a WalFrameReader, and sets `*stop` to where the frames end. A
/// defect is Corruption naming `path`, except that with `tail_ok` (the live
/// file) a torn or stale tail ends the walk: a cut-off frame, a frame of an
/// older generation, or a crc mismatch on the final frame.
Status ScanWalFrames(RandomAccessFile* file, uint64_t begin, uint64_t end,
                     uint32_t gen, bool tail_ok, const std::string& path,
                     const std::function<Status(uint64_t, Slice)>& fn,
                     uint64_t* stop);

/// Full offline verification of a sealed segment: header magic + checksum,
/// body length against the header's LSN range, and every frame's crc under
/// the header's generation. Used by the archiver before a segment is copied
/// into the archive, and by restore/dmx_backup_verify before replay.
Status VerifySegmentFile(Env* env, const std::string& path,
                         SegmentHeader* out);

}  // namespace dmx

#endif  // DMX_WAL_WAL_FORMAT_H_
