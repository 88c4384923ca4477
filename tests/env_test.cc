// Unit tests for the pluggable Env, CRC32C, and the fault-injection Env.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/util/crc32c.h"
#include "src/util/env.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

// -- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, StandardVectors) {
  // The canonical CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);

  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x113FDB5Cu);
}

TEST(Crc32cTest, ExtendChains) {
  const std::string hello = "hello ";
  const std::string world = "world";
  const std::string both = hello + world;
  EXPECT_EQ(Crc32cExtend(Crc32c(hello.data(), hello.size()), world.data(),
                         world.size()),
            Crc32c(both.data(), both.size()));
  EXPECT_EQ(Crc32cExtend(0, both.data(), both.size()),
            Crc32c(both.data(), both.size()));
}

TEST(Crc32cTest, HardwareMatchesSoftware) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = rng() % 300;
    std::string data(n, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    // Misaligned starts exercise the hardware path's alignment prologue.
    size_t skip = n > 3 ? rng() % 3 : 0;
    EXPECT_EQ(Crc32cExtend(0, data.data() + skip, n - skip),
              internal::Crc32cExtendSoftware(0, data.data() + skip, n - skip));
  }
  // Lengths on and around the three-stream block boundaries (3 x 128 and
  // 3 x 1,024 bytes, and sums of them), at every alignment, continuing a
  // nonzero CRC: each mix of long blocks, short blocks and tail.
  std::string data(3 * 3 * 1024 + 3 * 128 + 64, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  for (size_t base : {size_t{0}, size_t{384}, size_t{3072}, size_t{3456},
                      size_t{6144}, size_t{8192}, size_t{9216}}) {
    for (size_t delta : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{383}, size_t{385}}) {
      for (size_t skip = 0; skip < 8; ++skip) {
        const size_t n = std::min(base + delta, data.size() - skip);
        SCOPED_TRACE(std::to_string(n) + " bytes at offset " +
                     std::to_string(skip));
        EXPECT_EQ(Crc32cExtend(0x12345678u, data.data() + skip, n),
                  internal::Crc32cExtendSoftware(0x12345678u,
                                                 data.data() + skip, n));
      }
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(128, 'x');
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t bit : {size_t{0}, size_t{500}, size_t{1023}}) {
    std::string mutated = data;
    mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), clean);
  }
}

// -- Posix Env ---------------------------------------------------------------

TEST(EnvTest, DirnameOf) {
  EXPECT_EQ(DirnameOf("/a/b/c"), "/a/b");
  EXPECT_EQ(DirnameOf("/top"), "/");
  EXPECT_EQ(DirnameOf("plain"), ".");
}

TEST(EnvTest, WriteReadRoundTrip) {
  TempDir dir("env1");
  Env* env = Env::Default();
  const std::string path = dir.path() + "/f";
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(path, true, &file).ok());
  ASSERT_TRUE(file->Write(0, "hello", 5).ok());
  ASSERT_TRUE(file->Write(5, " world", 6).ok());
  char buf[16];
  size_t n = 0;
  ASSERT_TRUE(file->Read(0, 11, buf, &n).ok());
  ASSERT_EQ(n, 11u);
  EXPECT_EQ(std::string(buf, 11), "hello world");
  // Reads past the end are short, not errors.
  ASSERT_TRUE(file->Read(6, 16, buf, &n).ok());
  EXPECT_EQ(n, 5u);
  uint64_t size = 0;
  ASSERT_TRUE(file->Size(&size).ok());
  EXPECT_EQ(size, 11u);
  ASSERT_TRUE(file->Truncate(5).ok());
  ASSERT_TRUE(file->Size(&size).ok());
  EXPECT_EQ(size, 5u);
  ASSERT_TRUE(file->Sync(false).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST(EnvTest, FileNamespaceOperations) {
  TempDir dir("env2");
  Env* env = Env::Default();
  const std::string path = dir.path() + "/f";
  EXPECT_TRUE(env->FileExists(path).IsNotFound());
  std::string content;
  EXPECT_TRUE(env->ReadFileToString(path, &content).IsNotFound());

  ASSERT_TRUE(env->WriteFileAtomic(path, "v1").ok());
  EXPECT_TRUE(env->FileExists(path).ok());
  ASSERT_TRUE(env->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "v1");
  // Atomic replacement, shrinking content.
  ASSERT_TRUE(env->WriteFileAtomic(path, "2").ok());
  ASSERT_TRUE(env->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "2");

  ASSERT_TRUE(env->RenameFile(path, path + "2").ok());
  EXPECT_TRUE(env->FileExists(path).IsNotFound());
  ASSERT_TRUE(env->DeleteFile(path + "2").ok());
  EXPECT_TRUE(env->FileExists(path + "2").IsNotFound());
  ASSERT_TRUE(env->SyncDir(dir.path()).ok());
}

TEST(EnvTest, LinkOrCopyFileCopiesAndRefusesOverwrite) {
  TempDir dir("env3");
  Env* env = Env::Default();
  const std::string src = dir.path() + "/src";
  const std::string dst = dir.path() + "/dst";
  const std::string payload(100000, 'q');  // spans multiple copy chunks
  ASSERT_TRUE(env->WriteFileAtomic(src, payload).ok());
  ASSERT_TRUE(env->LinkOrCopyFile(src, dst).ok());
  std::string copied;
  ASSERT_TRUE(env->ReadFileToString(dst, &copied).ok());
  EXPECT_EQ(copied, payload);
  // An existing target is never clobbered: archived segments are immutable.
  EXPECT_TRUE(env->LinkOrCopyFile(src, dst).IsIOError());
  EXPECT_FALSE(env->LinkOrCopyFile(dir.path() + "/nope", dst + "2").ok());
}

// -- FaultInjectionEnv -------------------------------------------------------

class FaultEnvTest : public ::testing::Test {
 protected:
  FaultEnvTest() : dir_("faultenv"), env_(Env::Default()) {}

  std::string Path(const std::string& name) { return dir_.path() + "/" + name; }

  std::string ReadBase(const std::string& name) {
    std::string out;
    EXPECT_TRUE(Env::Default()->ReadFileToString(Path(name), &out).ok());
    return out;
  }

  TempDir dir_;
  FaultInjectionEnv env_;
};

TEST_F(FaultEnvTest, WriteFailAfterCountdownKillsDisk) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  env_.SetWriteFailAfter(2);
  EXPECT_TRUE(f->Write(0, "a", 1).ok());
  EXPECT_TRUE(f->Write(1, "b", 1).ok());
  EXPECT_TRUE(f->Write(2, "c", 1).IsIOError());
  EXPECT_TRUE(env_.dead_disk());
  // Dead disk: everything later fails too, including syncs.
  EXPECT_TRUE(f->Write(0, "x", 1).IsIOError());
  EXPECT_TRUE(f->Sync(false).IsIOError());
  env_.ClearFaults();
  EXPECT_FALSE(env_.dead_disk());
  EXPECT_TRUE(f->Write(2, "c", 1).ok());
  ASSERT_TRUE(f->Close().ok());
}

TEST_F(FaultEnvTest, ProbabilisticFaultsFire) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  ASSERT_TRUE(f->Write(0, "data", 4).ok());
  env_.SetReadErrorProb(1.0);
  char buf[4];
  size_t n = 0;
  EXPECT_TRUE(f->Read(0, 4, buf, &n).IsIOError());
  env_.SetReadErrorProb(0);
  EXPECT_TRUE(f->Read(0, 4, buf, &n).ok());
  env_.SetSyncErrorProb(1.0);
  EXPECT_TRUE(f->Sync(true).IsIOError());
  EXPECT_GE(env_.injected_faults(), 2u);
  env_.ClearFaults();
  ASSERT_TRUE(f->Close().ok());
}

TEST_F(FaultEnvTest, BitFlipCorruptsExactlyOneBit) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  const std::string data(64, '\x5A');
  env_.SetCorruptNextWrite(FaultInjectionEnv::CorruptMode::kBitFlip);
  ASSERT_TRUE(f->Write(0, data.data(), data.size()).ok());  // caller not told
  ASSERT_TRUE(f->Close().ok());
  std::string on_disk = ReadBase("f");
  ASSERT_EQ(on_disk.size(), data.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(on_disk[i] ^ data[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  // Only the marked write is corrupted; the next one is clean.
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("g"), true, &f).ok());
  ASSERT_TRUE(f->Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(ReadBase("g"), data);
}

TEST_F(FaultEnvTest, TornWritePersistsOnlyAPrefix) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  env_.SetCorruptNextWrite(FaultInjectionEnv::CorruptMode::kTornWrite);
  ASSERT_TRUE(f->Write(0, "0123456789", 10).ok());  // silently torn
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(ReadBase("f"), "01234");
}

TEST_F(FaultEnvTest, DropUnsyncedWritesRevertsToLastSync) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  ASSERT_TRUE(f->Write(0, "durable", 7).ok());
  ASSERT_TRUE(f->Sync(false).ok());
  ASSERT_TRUE(env_.SyncDir(dir_.path()).ok());  // creation now durable
  ASSERT_TRUE(f->Write(7, "-volatile", 9).ok());  // never synced
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_EQ(ReadBase("f"), "durable");
}

TEST_F(FaultEnvTest, DropUnsyncedWritesDeletesNonDurableFiles) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  ASSERT_TRUE(f->Write(0, "x", 1).ok());
  ASSERT_TRUE(f->Sync(false).ok());  // data synced...
  ASSERT_TRUE(f->Close().ok());
  // ...but the directory entry never was: power loss loses the file.
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_TRUE(env_.FileExists(Path("f")).IsNotFound());
}

TEST_F(FaultEnvTest, PreexistingFilesAreDurableAsOpened) {
  ASSERT_TRUE(Env::Default()->WriteFileAtomic(Path("f"), "original").ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), false, &f).ok());
  ASSERT_TRUE(f->Write(0, "SCRIBBLE", 8).ok());  // never synced
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_EQ(ReadBase("f"), "original");
}

TEST_F(FaultEnvTest, WriteFileAtomicIsDurableOrFails) {
  ASSERT_TRUE(env_.WriteFileAtomic(Path("f"), "v1").ok());
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_EQ(ReadBase("f"), "v1");
  // A failed atomic write leaves the old content intact.
  env_.SetSyncFailAfter(0);
  EXPECT_TRUE(env_.WriteFileAtomic(Path("f"), "v2").IsIOError());
  env_.ClearFaults();
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_EQ(ReadBase("f"), "v1");
}

TEST_F(FaultEnvTest, ListDirSeesWrappedFileOperations) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("a"), true, &f).ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_.WriteFileAtomic(Path("b"), "x").ok());
  std::vector<std::string> names;
  ASSERT_TRUE(env_.ListDir(dir_.path(), &names).ok());
  EXPECT_NE(std::find(names.begin(), names.end(), "a"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "b"), names.end());
  // WriteFileAtomic leaves no .tmp staging entry behind.
  for (const std::string& n : names) {
    EXPECT_EQ(n.find(".tmp"), std::string::npos) << n;
  }
  ASSERT_TRUE(env_.DeleteFile(Path("a")).ok());
  names.clear();
  ASSERT_TRUE(env_.ListDir(dir_.path(), &names).ok());
  EXPECT_EQ(std::find(names.begin(), names.end(), "a"), names.end());
  EXPECT_FALSE(env_.ListDir(Path("missing"), &names).ok());
}

// The archiver copies sealed segments with LinkOrCopyFile; the wrapper
// deliberately leaves it to the Env base class so every byte funnels
// through the wrapped read/write/sync hooks below.
TEST_F(FaultEnvTest, LinkOrCopyFileHitsFaultTriggers) {
  ASSERT_TRUE(env_.WriteFileAtomic(Path("src"), "segment-bytes").ok());
  env_.SetTransientWriteFaults(1);
  Status s = env_.LinkOrCopyFile(Path("src"), Path("dst"));
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(s.IsRetryable());
  // The burst auto-cleared; the retry succeeds and reads back intact.
  ASSERT_TRUE(env_.DeleteFile(Path("dst")).ok());
  ASSERT_TRUE(env_.LinkOrCopyFile(Path("src"), Path("dst")).ok());
  EXPECT_EQ(ReadBase("dst"), "segment-bytes");

  env_.SetTransientReadFaults(1);
  EXPECT_TRUE(env_.LinkOrCopyFile(Path("src"), Path("dst2")).IsIOError());
  env_.SetWriteFailAfter(0);
  EXPECT_TRUE(env_.LinkOrCopyFile(Path("src"), Path("dst3")).IsIOError());
  EXPECT_TRUE(env_.dead_disk());
  env_.ClearFaults();
}

TEST_F(FaultEnvTest, LinkOrCopyFileCopyNeedsDirSyncToSurvivePowerLoss) {
  ASSERT_TRUE(env_.WriteFileAtomic(Path("src"), "payload").ok());
  // First copy: file data synced but the directory entry never made
  // durable — power loss deletes it (why the archiver syncs the archive
  // dir after each rename).
  ASSERT_TRUE(env_.LinkOrCopyFile(Path("src"), Path("lost")).ok());
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_TRUE(env_.FileExists(Path("lost")).IsNotFound());
  // Second copy followed by SyncDir survives.
  ASSERT_TRUE(env_.LinkOrCopyFile(Path("src"), Path("kept")).ok());
  ASSERT_TRUE(env_.SyncDir(dir_.path()).ok());
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
  EXPECT_EQ(ReadBase("kept"), "payload");
}

TEST_F(FaultEnvTest, SyncsAndWritesAreCounted) {
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile(Path("f"), true, &f).ok());
  const uint64_t w0 = env_.writes(), s0 = env_.syncs();
  ASSERT_TRUE(f->Write(0, "a", 1).ok());
  ASSERT_TRUE(f->Sync(true).ok());
  EXPECT_EQ(env_.writes(), w0 + 1);
  EXPECT_EQ(env_.syncs(), s0 + 1);
  ASSERT_TRUE(f->Close().ok());
}

}  // namespace
}  // namespace dmx
