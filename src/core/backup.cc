// Online backup (Database::Backup), offline point-in-time restore
// (Database::Restore), and the manifest/verification helpers of backup.h.

#include "src/core/backup.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/core/database.h"
#include "src/storage/page_file.h"
#include "src/util/crc32c.h"
#include "src/util/metrics.h"
#include "src/wal/archiver.h"
#include "src/wal/wal_format.h"

namespace dmx {

namespace {

// Decodes the header of a backup's copy of the live log.
Status DecodeLiveCopyHeader(const std::string& data, Lsn* base,
                            uint32_t* gen) {
  if (data.size() < kLogHeaderSize) {
    return Status::Corruption("live log copy shorter than its header");
  }
  Status s = DecodeLiveHeader(data.data(), base, gen);
  return s.ok() ? s : Status::Corruption(s.message() + " in the live log copy");
}

std::string HexCrc(uint32_t crc) {
  char buf[16];
  snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool ParseHex32(const std::string& s, uint32_t* out) {
  if (s.empty() || s.size() > 8) return false;
  char* end = nullptr;
  const unsigned long long v = strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseDec64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  char* end = nullptr;
  const unsigned long long v = strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos > start) out.push_back(line.substr(start, pos - start));
  }
  return out;
}

/// Write `data` to a fresh file at `path` and sync it (not its directory
/// entry — batches of files share one SyncDir).
Status WriteFileSynced(Env* env, const std::string& path,
                       const std::string& data) {
  std::unique_ptr<RandomAccessFile> file;
  DMX_RETURN_IF_ERROR(env->NewRandomAccessFile(path, /*create=*/true, &file));
  Status s = file->Truncate(0);
  if (s.ok() && !data.empty()) s = file->Write(0, data.data(), data.size());
  if (s.ok()) s = file->Sync(/*data_only=*/false);
  Status c = file->Close();
  return s.ok() ? c : s;
}

/// Copy `from` into the backup, recording its size and CRC32C. Reads the
/// whole file in one pass, so an atomically-replaced source (catalog,
/// storage-method snapshots) yields a complete old or new version.
Status CopyFileWithCrc(Env* env, const std::string& from,
                       const std::string& to, uint64_t* size, uint32_t* crc) {
  std::string data;
  DMX_RETURN_IF_ERROR(env->ReadFileToString(from, &data));
  DMX_RETURN_IF_ERROR(WriteFileSynced(env, to, data));
  *size = data.size();
  *crc = Crc32c(data.data(), data.size());
  return Status::OK();
}

}  // namespace

// -- manifest -----------------------------------------------------------------

std::string EncodeBackupManifest(const BackupManifest& m) {
  std::string out = "dmx-backup-manifest v1\n";
  out += "begin_lsn " + std::to_string(m.begin_lsn) + "\n";
  out += "end_lsn " + std::to_string(m.end_lsn) + "\n";
  out += "pages " + std::to_string(m.pages) + "\n";
  for (const BackupManifest::FileEntry& e : m.files) {
    out += "file " + e.name + " " + std::to_string(e.size) + " " +
           HexCrc(e.crc) + "\n";
  }
  out += "crc " + HexCrc(Crc32c(out.data(), out.size())) + "\n";
  return out;
}

Status ParseBackupManifest(const std::string& data, BackupManifest* out) {
  BackupManifest m;
  bool saw_header = false;
  bool saw_crc = false;
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t eol = data.find('\n', pos);
    if (eol == std::string::npos) {
      return Status::InvalidArgument("backup manifest: unterminated line");
    }
    const size_t line_start = pos;
    const std::string line = data.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != "dmx-backup-manifest v1") {
        return Status::InvalidArgument(
            "not a dmx backup manifest (unrecognized first line)");
      }
      saw_header = true;
      continue;
    }
    if (saw_crc) {
      return Status::Corruption("backup manifest: data after checksum line");
    }
    const std::vector<std::string> tok = SplitWs(line);
    if (tok.empty()) continue;
    uint64_t v64 = 0;
    uint32_t v32 = 0;
    if (tok[0] == "begin_lsn" && tok.size() == 2 && ParseDec64(tok[1], &v64)) {
      m.begin_lsn = v64;
    } else if (tok[0] == "end_lsn" && tok.size() == 2 &&
               ParseDec64(tok[1], &v64)) {
      m.end_lsn = v64;
    } else if (tok[0] == "pages" && tok.size() == 2 &&
               ParseDec64(tok[1], &v64)) {
      m.pages = static_cast<uint32_t>(v64);
    } else if (tok[0] == "file" && tok.size() == 4 &&
               ParseDec64(tok[2], &v64) && ParseHex32(tok[3], &v32)) {
      m.files.push_back({tok[1], v64, v32});
    } else if (tok[0] == "crc" && tok.size() == 2 && ParseHex32(tok[1], &v32)) {
      const uint32_t actual = Crc32c(data.data(), line_start);
      if (v32 != actual) {
        return Status::Corruption(
            "backup manifest checksum mismatch (torn or tampered manifest)");
      }
      saw_crc = true;
    } else {
      return Status::InvalidArgument("backup manifest: bad line '" + line +
                                     "'");
    }
  }
  if (!saw_header || !saw_crc) {
    return Status::InvalidArgument(
        "backup manifest incomplete (missing header or checksum line)");
  }
  if (m.end_lsn < m.begin_lsn) {
    return Status::InvalidArgument("backup manifest lsn range inverted");
  }
  *out = std::move(m);
  return Status::OK();
}

Status LoadBackupManifest(Env* env, const std::string& dir,
                          BackupManifest* out) {
  std::string data;
  Status s =
      env->ReadFileToString(dir + "/" + kBackupManifestName, &data);
  if (s.IsNotFound()) {
    return Status::InvalidArgument(
        "'" + dir + "' has no " + kBackupManifestName +
        " — not a backup directory, or an interrupted backup");
  }
  DMX_RETURN_IF_ERROR(s);
  return ParseBackupManifest(data, out);
}

Status VerifyBackupDir(Env* env, const std::string& dir, std::string* report) {
  const auto note = [report](const std::string& line) {
    if (report != nullptr) {
      report->append(line);
      report->push_back('\n');
    }
  };
  BackupManifest m;
  DMX_RETURN_IF_ERROR(LoadBackupManifest(env, dir, &m));
  note("manifest ok: begin_lsn=" + std::to_string(m.begin_lsn) +
       " end_lsn=" + std::to_string(m.end_lsn) +
       " pages=" + std::to_string(m.pages) +
       " files=" + std::to_string(m.files.size()));

  struct Seg {
    SegmentHeader hdr;
    std::string name;
  };
  std::vector<Seg> segs;
  bool have_pages = false;
  bool have_live = false;
  Lsn live_base = 0;
  Lsn live_end = 0;
  uint32_t live_gen = 0;
  for (const BackupManifest::FileEntry& e : m.files) {
    const std::string path = dir + "/" + e.name;
    std::string data;
    Status rs = env->ReadFileToString(path, &data);
    if (rs.IsNotFound()) {
      return Status::Corruption("backup file '" + e.name + "' is missing");
    }
    DMX_RETURN_IF_ERROR(rs);
    if (data.size() != e.size) {
      return Status::Corruption("backup file '" + e.name + "' is " +
                                std::to_string(data.size()) +
                                " bytes; the manifest recorded " +
                                std::to_string(e.size));
    }
    if (Crc32c(data.data(), data.size()) != e.crc) {
      return Status::Corruption("backup file '" + e.name +
                                "' fails its manifest checksum");
    }
    if (e.name == "db.pages") {
      have_pages = true;
      if (e.size != static_cast<uint64_t>(m.pages) * kDiskPageSize) {
        return Status::Corruption(
            "page file size disagrees with the manifest page count");
      }
    } else if (e.name == "wal") {
      have_live = true;
      DMX_RETURN_IF_ERROR(DecodeLiveCopyHeader(data, &live_base, &live_gen));
      for (size_t p = kLogHeaderSize;;) {
        const WalFrame frame = DecodeWalFrame(data, p, live_gen);
        if (frame.status == WalFrameStatus::kEnd) break;
        if (frame.status != WalFrameStatus::kOk) {
          return Status::Corruption(std::string(WalFrameProblem(frame.status)) +
                                    " at offset " + std::to_string(p) +
                                    " in the live log copy");
        }
        p = static_cast<size_t>(frame.next);
      }
      live_end = live_base + (data.size() - kLogHeaderSize);
    } else if (e.name.size() > 4 &&
               e.name.compare(e.name.size() - 4, 4, ".seg") == 0) {
      SegmentHeader hdr;
      DMX_RETURN_IF_ERROR(VerifySegmentFile(env, path, &hdr));
      segs.push_back({hdr, e.name});
    }
    note("ok " + e.name + " (" + std::to_string(e.size) + " bytes, crc " +
         HexCrc(e.crc) + ")");
  }
  if (!have_pages || !have_live) {
    return Status::Corruption(
        "backup manifest lists no page file or no live log copy");
  }
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.hdr.base_lsn < b.hdr.base_lsn;
  });
  Lsn cur = m.begin_lsn;
  for (const Seg& seg : segs) {
    if (seg.hdr.base_lsn != cur) {
      return Status::Corruption(
          "wal chain gap: segment '" + seg.name + "' begins at lsn " +
          std::to_string(seg.hdr.base_lsn) + ", expected lsn " +
          std::to_string(cur));
    }
    cur = seg.hdr.end_lsn;
  }
  if (live_base != cur) {
    return Status::Corruption(
        "wal chain gap: the live log copy begins at lsn " +
        std::to_string(live_base) + ", expected lsn " + std::to_string(cur));
  }
  if (live_end < m.end_lsn) {
    return Status::Corruption("captured wal ends at lsn " +
                              std::to_string(live_end) +
                              ", before the backup's end lsn " +
                              std::to_string(m.end_lsn));
  }
  note("wal chain contiguous: lsn " + std::to_string(m.begin_lsn) + " .. " +
       std::to_string(live_end));
  return Status::OK();
}

// -- online backup ------------------------------------------------------------

Status Database::Backup(const std::string& dest_dir, BackupResult* result) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  Status s = [&]() -> Status {
    // A degraded database cannot flush, so it cannot produce a backup whose
    // end LSN actually covers its page copies.
    DMX_RETURN_IF_ERROR(error_handler_->CheckWritable());
    DMX_RETURN_IF_ERROR(env_->CreateDir(dest_dir));
    std::vector<std::string> existing;
    DMX_RETURN_IF_ERROR(env_->ListDir(dest_dir, &existing));
    if (!existing.empty()) {
      return Status::InvalidArgument("backup target '" + dest_dir +
                                     "' is not empty");
    }

    // Pin the WAL for the duration: rotation, truncation, and segment
    // reclaim return Busy, so the history range this backup captures
    // cannot vanish or shift mid-copy. Writers keep appending freely.
    log_.PinWal();
    struct Unpin {
      LogManager* log;
      ~Unpin() { log->UnpinWal(); }
    } unpin{&log_};

    BackupManifest m;
    // Phase-1 checkpoint flush (no quiescence): bounds the WAL replay a
    // restore must do and writes the storage-method snapshots we copy.
    DMX_RETURN_IF_ERROR(DoCheckpointFlush());
    {
      const std::vector<LogManager::SegmentInfo> segs = log_.segments();
      m.begin_lsn = segs.empty() ? log_.base_lsn() : segs.front().base_lsn;
    }

    // Fuzzy page copy: allocation structure frozen, record writers live,
    // torn reads absorbed by per-page checksum retry.
    uint32_t pages = 0;
    uint32_t pages_crc = 0;
    DMX_RETURN_IF_ERROR(
        page_file_.SnapshotTo(dest_dir + "/db.pages", &pages, &pages_crc));
    m.pages = pages;
    m.files.push_back(
        {"db.pages", static_cast<uint64_t>(pages) * kDiskPageSize, pages_crc});

    // Catalog and storage-method snapshot files. Both are replaced only via
    // WriteFileAtomic, so a single-pass read observes a complete version;
    // WAL replay reconciles whichever version we caught.
    uint64_t size = 0;
    uint32_t crc = 0;
    DMX_RETURN_IF_ERROR(CopyFileWithCrc(env_, dir_ + "/catalog",
                                        dest_dir + "/catalog", &size, &crc));
    m.files.push_back({"catalog", size, crc});
    std::vector<std::string> names;
    DMX_RETURN_IF_ERROR(env_->ListDir(dir_, &names));
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      if (name.rfind("mm_", 0) == 0 && name.size() > 12 &&
          name.compare(name.size() - 9, 9, ".snapshot") == 0) {
        DMX_RETURN_IF_ERROR(CopyFileWithCrc(env_, dir_ + "/" + name,
                                            dest_dir + "/" + name, &size,
                                            &crc));
        m.files.push_back({name, size, crc});
      }
    }

    // Everything appended so far becomes part of the backup; the flushed
    // LSN after this force is the consistency point.
    DMX_RETURN_IF_ERROR(log_.FlushAll());
    m.end_lsn = log_.flushed_lsn();

    // The retained segment chain (stable: reclaim is pinned out).
    for (const LogManager::SegmentInfo& seg : log_.segments()) {
      const std::string name = BasenameOf(seg.path);
      DMX_RETURN_IF_ERROR(CopyFileWithCrc(env_, seg.path,
                                          dest_dir + "/" + name, &size, &crc));
      m.files.push_back({name, size, crc});
    }
    // The live log's durable prefix (covers at least up to end_lsn).
    DMX_RETURN_IF_ERROR(log_.SnapshotLiveTo(dest_dir + "/wal"));
    std::string wal_copy;
    DMX_RETURN_IF_ERROR(env_->ReadFileToString(dest_dir + "/wal", &wal_copy));
    m.files.push_back(
        {"wal", wal_copy.size(), Crc32c(wal_copy.data(), wal_copy.size())});

    // Make every entry durable, then publish the manifest — the backup's
    // atomic commit point — last.
    DMX_RETURN_IF_ERROR(env_->SyncDir(dest_dir));
    DMX_RETURN_IF_ERROR(env_->WriteFileAtomic(
        dest_dir + "/" + kBackupManifestName, EncodeBackupManifest(m)));

    last_backup_lsn_.store(m.end_lsn, std::memory_order_release);
    Counter* last = metrics->GetCounter("backup.last_lsn");
    last->Reset();
    last->Increment(m.end_lsn);
    if (result != nullptr) {
      result->begin_lsn = m.begin_lsn;
      result->end_lsn = m.end_lsn;
      result->pages = m.pages;
      result->files = m.files.size();
    }
    return Status::OK();
  }();
  // A backup failure stays with the operation: the destination is often a
  // different (possibly remote) volume, and its faults must not degrade
  // the live database the way a local write-path fault would.
  metrics->GetCounter(s.ok() ? "backup.runs" : "backup.failures")->Increment();
  return s;
}

// -- offline restore ----------------------------------------------------------

Status Database::Restore(const RestoreOptions& options, Lsn* replayed_to) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (options.backup_dir.empty() || options.target_dir.empty()) {
    return Status::InvalidArgument(
        "restore requires a backup and a target directory");
  }
  BackupManifest m;
  DMX_RETURN_IF_ERROR(LoadBackupManifest(env, options.backup_dir, &m));
  DMX_RETURN_IF_ERROR(env->CreateDir(options.target_dir));
  std::vector<std::string> existing;
  DMX_RETURN_IF_ERROR(env->ListDir(options.target_dir, &existing));
  if (!existing.empty()) {
    return Status::InvalidArgument("restore target '" + options.target_dir +
                                   "' is not empty");
  }
  if (options.target_lsn != 0 && options.target_lsn < m.end_lsn) {
    return Status::InvalidArgument(
        "target lsn " + std::to_string(options.target_lsn) +
        " predates the backup's consistency point (end lsn " +
        std::to_string(m.end_lsn) +
        "): its page copies may already contain effects past the target");
  }

  // Verify and install every manifest file except the live log copy; the
  // WAL tail is materialized separately below (possibly trimmed, possibly
  // superseded by archived segments).
  std::string live_body;
  Lsn live_base = 0;
  uint32_t live_gen = 0;
  bool have_live = false;
  for (const BackupManifest::FileEntry& e : m.files) {
    std::string data;
    Status rs = env->ReadFileToString(options.backup_dir + "/" + e.name,
                                      &data);
    if (rs.IsNotFound()) {
      return Status::Corruption("backup file '" + e.name + "' is missing");
    }
    DMX_RETURN_IF_ERROR(rs);
    if (data.size() != e.size ||
        Crc32c(data.data(), data.size()) != e.crc) {
      return Status::Corruption("backup file '" + e.name +
                                "' fails verification against the manifest");
    }
    if (e.name == "wal") {
      DMX_RETURN_IF_ERROR(DecodeLiveCopyHeader(data, &live_base, &live_gen));
      live_body = data.substr(kLogHeaderSize);
      have_live = true;
      continue;
    }
    DMX_RETURN_IF_ERROR(
        WriteFileSynced(env, options.target_dir + "/" + e.name, data));
  }
  if (!have_live) {
    return Status::Corruption("backup manifest lists no live log copy");
  }
  const Lsn live_avail = live_base + live_body.size();

  // Choose the WAL tail past the backup's sealed segments: the backup's
  // own live log copy, or — when the target lies beyond it — a contiguous
  // chain of archived segments beginning at the same base LSN (the first
  // segment sealed after the backup supersedes the live copy: it is the
  // same history, extended).
  Lsn target = options.target_lsn;
  struct TailPiece {
    Lsn base = 0;
    Lsn end = 0;
    uint32_t gen = 0;
    std::string path;  // empty: the backup's live log copy
  };
  std::vector<TailPiece> tail;
  if (target != 0 && target <= live_avail) {
    tail.push_back({live_base, live_avail, live_gen, ""});
  } else {
    std::map<Lsn, TailPiece> archived;  // base lsn -> candidate
    if (!options.archive_dir.empty()) {
      std::vector<std::string> names;
      Status ls = env->ListDir(options.archive_dir, &names);
      if (!ls.ok() && !ls.IsNotFound()) return ls;
      if (ls.ok()) {
        for (const std::string& name : names) {
          uint32_t seqno = 0;
          if (!ParseSegmentName(name, "wal", &seqno)) continue;
          const std::string path = options.archive_dir + "/" + name;
          // Header-only peek for indexing; the chosen pieces get a full
          // structural verification before installation.
          SegmentHeader parsed;
          Status hs = ReadSegmentHeader(env, path, &parsed);
          if (hs.IsCorruption()) {
            continue;  // unusable file; a gap error below names the lsn
          }
          DMX_RETURN_IF_ERROR(hs);
          auto it = archived.find(parsed.base_lsn);
          if (it == archived.end() || parsed.end_lsn > it->second.end) {
            archived[parsed.base_lsn] =
                {parsed.base_lsn, parsed.end_lsn, parsed.gen, path};
          }
        }
      }
    }
    Lsn cur = live_base;
    while (target == 0 || cur < target) {
      auto it = archived.find(cur);
      if (it == archived.end()) break;
      tail.push_back(it->second);
      cur = it->second.end;
    }
    if (tail.empty() || cur < live_avail) {
      // No archived continuation (or one ending before the backup's own
      // copy): fall back to the captured live log.
      tail.clear();
      tail.push_back({live_base, live_avail, live_gen, ""});
      cur = live_avail;
    }
    if (target == 0) target = cur;
    if (target > cur) {
      return Status::InvalidArgument(
          "wal history ends at lsn " + std::to_string(cur) +
          "; cannot reach target lsn " + std::to_string(target) +
          " (no archived segment begins at lsn " + std::to_string(cur) + ")");
    }
  }

  // Install the tail: every piece but the last lands verbatim as a sealed
  // segment; the last is trimmed at the highest frame boundary at or below
  // the target and becomes the live log file.
  for (size_t i = 0; i + 1 < tail.size(); ++i) {
    const TailPiece& p = tail[i];
    DMX_RETURN_IF_ERROR(VerifySegmentFile(env, p.path, nullptr));
    std::string data;
    DMX_RETURN_IF_ERROR(env->ReadFileToString(p.path, &data));
    DMX_RETURN_IF_ERROR(WriteFileSynced(
        env, options.target_dir + "/" + BasenameOf(p.path), data));
  }
  const TailPiece& final_piece = tail.back();
  std::string body;
  if (!final_piece.path.empty()) {
    DMX_RETURN_IF_ERROR(VerifySegmentFile(env, final_piece.path, nullptr));
    std::string data;
    DMX_RETURN_IF_ERROR(env->ReadFileToString(final_piece.path, &data));
    body = data.substr(kSegHeaderSize);
  } else {
    body = std::move(live_body);
  }
  const uint64_t limit = target - final_piece.base;
  size_t keep = 0;
  while (true) {
    // A cut-off frame stays at `keep`, within the limit: torn, unless only
    // a partial header follows the last whole frame.
    const WalFrame frame = DecodeWalFrame(body, keep, final_piece.gen);
    if (frame.status == WalFrameStatus::kEnd ||
        frame.status == WalFrameStatus::kShortHeader || frame.next > limit) {
      break;
    }
    if (frame.status != WalFrameStatus::kOk) {
      return Status::Corruption(
          std::string(WalFrameProblem(frame.status)) + " at lsn " +
          std::to_string(final_piece.base + keep + 1) +
          " in the restored wal tail");
    }
    keep = static_cast<size_t>(frame.next);
  }
  std::string live;
  EncodeLiveHeader(final_piece.base, final_piece.gen, &live);
  live.append(body.data(), keep);
  DMX_RETURN_IF_ERROR(WriteFileSynced(env, options.target_dir + "/wal", live));
  DMX_RETURN_IF_ERROR(env->SyncDir(options.target_dir));
  const Lsn replay_end = final_piece.base + keep;

  // Normal restart recovery over the rebuilt directory: redo through the
  // trimmed WAL, undo every transaction without a commit record at or
  // below the target; derived in-memory state is built at first touch. A
  // clean close flushes the recovered image.
  DatabaseOptions dbo;
  dbo.dir = options.target_dir;
  dbo.env = env;
  dbo.register_extensions = options.register_extensions;
  dbo.auto_recovery = false;  // offline: fail loudly, no background repair
  dbo.group_flush_interval_us = 0;  // no background threads needed
  std::unique_ptr<Database> db;
  DMX_RETURN_IF_ERROR(Database::Open(dbo, &db));
  db.reset();
  if (replayed_to != nullptr) *replayed_to = replay_end;
  return Status::OK();
}

}  // namespace dmx
