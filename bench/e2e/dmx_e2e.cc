// dmx_e2e: end-to-end SQL benchmark on the paper's Figure-1 EMPLOYEE
// relation — heap storage with UNIQUE btree_index(id), btree_index(salary),
// hash_index(dept) and CHECK (salary >= 0) — driven through
// Session::Execute by closed-loop clients.
//
//   dmx_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--rows N] [--out DIR]
//
// One invocation sets the database up (bulk load through SQL, then
// CHECKPOINT), warms up for a fifth of the window, measures for S seconds,
// checks every answer against the driver's own oracle, then simulates a
// crash, reopens and checks again. It prints one `workload metric value
// unit` line per metric, writes the full result to OUT/<workload>.<seed>
// [.traced].json, and ends stdout with a one-line JSON summary. The gated
// timings are in reference time (see "Machine speed" below);
// bench/e2e/README.md defines the workloads and every metric.
//
// Every layer is measured from outside: the driver times its own calls
// into Session::Execute, PlanAccess and Database::EstimateCost, and reads
// the Database::MetricsSnapshot() registry over the window.

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/database.h"
#include "src/query/planner.h"
#include "src/query/sql.h"
#include "src/util/metrics.h"

namespace fs = std::filesystem;

namespace {

using dmx::Database;
using dmx::DatabaseOptions;
using dmx::Expr;
using dmx::ExprOp;
using dmx::ExprPtr;
using dmx::QueryResult;
using dmx::Session;
using dmx::Status;
using dmx::Value;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

enum Kind : uint8_t {
  kSelect,
  kRange,
  kInsert,
  kUpdateSalary,
  kUpdateName,
  kDelete,
  kNumKinds
};
const char* const kKindNames[kNumKinds] = {
    "select", "range", "insert", "update_salary", "update_name", "delete"};

// Latency classes reported end to end; both update kinds share one.
enum LatClass { kLatSelect, kLatRange, kLatInsert, kLatUpdate, kLatDelete,
                kNumLat };
const char* const kLatNames[kNumLat] = {"select", "range", "insert", "update",
                                        "delete"};
LatClass LatOf(Kind k) {
  switch (k) {
    case kSelect: return kLatSelect;
    case kRange: return kLatRange;
    case kInsert: return kLatInsert;
    case kDelete: return kLatDelete;
    default: return kLatUpdate;
  }
}
bool IsWrite(Kind k) { return k >= kInsert; }

struct Workload {
  const char* name;
  int clients;
  size_t pool_pages;
  bool prepared;  // point selects as `id = ?` through the params overload
  bool tenants;   // client i reads and writes only employee_i
  std::array<int, kNumKinds> mix;  // percent per Kind
};

// Inserts and deletes are equally frequent, and inserts reuse deleted ids,
// so the tables keep their size and key range: a point select's cost grows
// with the id index's leaves (its cost estimates read the whole B-tree, and
// a leaf is never freed), and a table that grew through the window would
// slow it down as it ran, the faster the run the more.
constexpr std::array<int, kNumKinds> kWriteMix = {38, 2, 15, 15, 15, 15};
// read_prepared's pool is 64 pages, about a third of its ~173-page heap
// (the ratio of the default 256-page pool to a 100,000-row heap), so its
// cyclic scans miss and evict.
const Workload kWorkloads[] = {
    {"read_adhoc", 1, 4096, false, false, {100, 0, 0, 0, 0, 0}},
    {"read_prepared", 1, 64, true, false, {100, 0, 0, 0, 0, 0}},
    {"write_mix", 1, 4096, false, false, kWriteMix},
    {"tenants_4s", 4, 4096, false, true, kWriteMix},
};

// Loads are repeated this often per run; setup_s is their median.
constexpr int kSetups = 3;
// Each client replaces its Session (and so its never-evicting PlanCache)
// after this many statements, so memory and hit rate stay level.
constexpr uint64_t kStatementsPerSession = 1000;
constexpr int kLoadBatch = 500;
constexpr int kProbePredicates = 1000;
constexpr int kSpotChecks = 200;
constexpr size_t kMaxLoggedErrors = 5;
constexpr double kRangeWidth = 999;  // salary values per range: ~1% of rows

// Field positions in EMPLOYEE.
constexpr int kId = 0, kSalary = 2;

std::string TableName(const Workload& w, int t) {
  return w.tenants ? "employee_" + std::to_string(t) : "employee";
}
double InitialSalary(int64_t i) {
  return 1000.0 + static_cast<double>((i * 7919) % 100000);
}
std::string Dept(int64_t i) {
  std::string d = "d";
  d += std::to_string(i % 50);
  return d;
}
std::string Num(double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}
// One `(id, 'name', salary, 'dept')` tuple of an INSERT.
std::string RowValues(int64_t id, const std::string& name, double salary) {
  std::string v = "(";
  v += std::to_string(id);
  v += ", '" + name + "', " + Num(salary) + ", '" + Dept(id) + "')";
  return v;
}

// ---------------------------------------------------------------------------
// Oracle: what each table must contain. A tenant table's oracle is touched
// only by its writer thread until the clients are joined.

struct Emp {
  double salary;
  std::string name;
  size_t pos;  // index in Oracle::live
};

struct Oracle {
  std::unordered_map<int64_t, Emp> rows;
  std::vector<int64_t> live;
  std::vector<int64_t> dead;  // deleted ids, which inserts take first
  std::set<std::pair<double, int64_t>> by_salary;
  int64_t next_id = 0;  // every id below it is live or dead

  void Put(int64_t id, double salary, std::string name) {
    if (id >= next_id) {
      next_id = id + 1;
    } else {
      auto it = std::find(dead.begin(), dead.end(), id);
      *it = dead.back();
      dead.pop_back();
    }
    rows[id] = Emp{salary, std::move(name), live.size()};
    live.push_back(id);
    by_salary.insert({salary, id});
  }
  void SetSalary(int64_t id, double salary) {
    Emp& e = rows.at(id);
    by_salary.erase({e.salary, id});
    e.salary = salary;
    by_salary.insert({salary, id});
  }
  void Erase(int64_t id) {
    auto it = rows.find(id);
    by_salary.erase({it->second.salary, id});
    const size_t pos = it->second.pos;
    live[pos] = live.back();
    rows.at(live[pos]).pos = pos;
    live.pop_back();
    rows.erase(it);
    dead.push_back(id);
  }
  double MeanRowBytes() const {
    double bytes = 0;
    for (const auto& [id, e] : rows) {
      bytes += 16 + static_cast<double>(e.name.size() + Dept(id).size());
    }
    return rows.empty() ? 0 : bytes / static_cast<double>(rows.size());
  }
};

// Checks one `SELECT *` row (id, name, salary, dept) against the oracle.
bool RowMatches(const std::vector<Value>& row, int64_t id, const Emp& e) {
  return row.size() == 4 && row[0].type() == dmx::TypeId::kInt64 &&
         row[0].int_value() == id && row[1].type() == dmx::TypeId::kString &&
         row[1].string_value() == e.name && row[2].is_numeric() &&
         row[2].AsDouble() == e.salary &&
         row[3].type() == dmx::TypeId::kString &&
         row[3].string_value() == Dept(id);
}

// ---------------------------------------------------------------------------
// The process-wide metrics registry behind Database::MetricsSnapshot(). The
// driver zeroes it (ResetAll) as the window opens and reads it once the
// clients are joined, so every value below covers the window.

uint64_t Count(const std::string& name) {
  return dmx::MetricsRegistry::Global()->GetCounter(name)->value();
}
dmx::HistogramSnapshot Hist(const std::string& name) {
  return dmx::MetricsRegistry::Global()->GetHistogram(name)->Snapshot();
}

struct Dispatch {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

// Storage-method and attachment dispatch, named as
// Database::ResolveDispatchMetrics names it ("sm.<id>.<type>.calls" and
// ".call_ns"), keyed "sm.<type>" and "at.<type>"; "sm" and "at" hold the
// totals over every type.
std::map<std::string, Dispatch> DispatchTotals(
    const dmx::ExtensionRegistry* reg) {
  std::map<std::string, Dispatch> out;
  auto add = [&](const std::string& layer, size_t id, const char* type) {
    const std::string name = type != nullptr ? type : "anonymous";
    const std::string base = layer + "." + std::to_string(id) + "." + name;
    const uint64_t calls = Count(base + ".calls");
    const uint64_t ns = Hist(base + ".call_ns").sum;
    for (const std::string& key : {layer, layer + "." + name}) {
      out[key].calls += calls;
      out[key].ns += ns;
    }
  };
  for (size_t id = 0; id < reg->num_storage_methods(); ++id) {
    add("sm", id, reg->sm_ops(static_cast<dmx::SmId>(id)).name);
  }
  for (size_t id = 0; id < reg->num_attachment_types(); ++id) {
    add("at", id, reg->at_ops(static_cast<dmx::AtId>(id)).name);
  }
  return out;
}

// What the per-layer metrics read from the registry, taken as the window
// closes: verification, recovery and the later set-ups add to it.
struct WindowRegistry {
  std::map<std::string, Dispatch> dispatch;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, dmx::HistogramSnapshot> hists;
};

WindowRegistry ReadWindowRegistry(const dmx::ExtensionRegistry* reg) {
  WindowRegistry r;
  r.dispatch = DispatchTotals(reg);
  for (const char* name :
       {"plancache.hits", "plancache.misses", "bufferpool.hits",
        "bufferpool.misses", "bufferpool.evictions", "bufferpool.writebacks",
        "lock.acquisitions", "lock.waits", "lock.deadlocks", "lock.timeouts",
        "txn.aborts", "wal.appends", "wal.syncs"}) {
    r.counters[name] = Count(name);
  }
  for (const char* name : {"lock.wait_ns", "txn.commit_ns", "wal.append_ns",
                           "wal.sync_ns", "wal.group_size"}) {
    r.hists[name] = Hist(name);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Small utilities

int64_t NowNs(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               origin)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(
                                                      v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

uint64_t DirBytes(const std::string& dir, bool wal) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    bool is_wal = e.path().filename().string().rfind("wal", 0) == 0;
    if (is_wal == wal) total += e.file_size();
  }
  return total;
}

double RssMiB() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Machine speed
//
// The vCPUs of the machine these numbers come from are shared, and its speed
// wanders by a third over seconds to minutes, more than the changes the
// benchmark must see. So the driver times a fixed piece of reference work
// every kRefEveryNs on every client thread, between two statements, and
// after every load batch, and the gated timings are in reference time: a
// reference microsecond (ref_us) is 1/kRefUs of the reference work's
// duration at that moment, on that workload's load.
constexpr double kRefUs = 200;
constexpr int64_t kRefEveryNs = 50'000'000;
// A statement is scaled by the median of this many of its client's samples
// nearest to its start, about 0.45 s of them: the speed changes from one
// second to the next, and single samples are noisy.
constexpr size_t kRefNearest = 9;

// Hash-map inserts, number formatting and random read-modify-writes over
// 256 KiB, like the engine's own work. It runs twice and only the second,
// warm pass is timed, so it measures the CPU rather than the cache the last
// statement left behind.
class RefWork {
 public:
  double TimeUs() {
    Run();
    const auto t0 = Clock::now();
    Run();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  }

 private:
  void Run() {
    std::unordered_map<uint64_t, uint64_t> map;
    std::string text;
    for (int i = 0; i < 1000; ++i) {
      x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
      map[x_ >> 40] = x_;
      mem_[(x_ >> 20) & (mem_.size() - 1)] += x_;
      text += std::to_string(x_ & 0xffff);
      if (text.size() > 200) text.clear();
    }
    x_ += map.size() + text.size();
  }

  std::vector<uint64_t> mem_ = std::vector<uint64_t>(1 << 15);
  uint64_t x_ = 1;
};

struct RefSample {
  int64_t at_ns;  // from the window start
  double us;
};

// The reference work's duration around `at_ns`, from one client's samples
// in time order.
double RefAround(const std::vector<RefSample>& refs, int64_t at_ns) {
  const size_t n = refs.size();
  const size_t k = std::min(kRefNearest, n);
  size_t lo = static_cast<size_t>(
      std::lower_bound(refs.begin(), refs.end(), at_ns,
                       [](const RefSample& r, int64_t t) {
                         return r.at_ns < t;
                       }) -
      refs.begin());
  lo = std::min(lo > k / 2 ? lo - k / 2 : 0, n - k);
  std::vector<double> us;
  for (size_t i = lo; i < lo + k; ++i) us.push_back(refs[i].us);
  return Median(us);
}

// ---------------------------------------------------------------------------
// The database's environment: the default POSIX Env with every sync a no-op.
//
// A 4 KiB fdatasync on the measuring machine's virtio disk usually takes
// 60–100 µs, but for minutes at a time its median doubles and commits stall
// for up to ~18 ms; in one such phase tenants_4s ran at a sixth of its
// usual throughput. The engine still syncs wherever it would, the call just
// returns, so the benchmark measures every statement's own work and the
// disk only in the fingerprint. The crash check never covered fsync
// ordering (see README), so it stands.

class NoSyncFile : public dmx::RandomAccessFile {
 public:
  explicit NoSyncFile(std::unique_ptr<dmx::RandomAccessFile> file)
      : file_(std::move(file)) {}
  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* out_n) override {
    return file_->Read(offset, n, scratch, out_n);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return file_->Write(offset, data, n);
  }
  Status Truncate(uint64_t size) override { return file_->Truncate(size); }
  Status Sync(bool /*data_only*/) override { return Status::OK(); }
  Status Size(uint64_t* out) override { return file_->Size(out); }
  Status Close() override { return file_->Close(); }

 private:
  std::unique_ptr<dmx::RandomAccessFile> file_;
};

class NoSyncEnv : public dmx::Env {
 public:
  Status NewRandomAccessFile(
      const std::string& path, bool create,
      std::unique_ptr<dmx::RandomAccessFile>* out) override {
    std::unique_ptr<dmx::RandomAccessFile> file;
    DMX_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, create, &file));
    *out = std::make_unique<NoSyncFile>(std::move(file));
    return Status::OK();
  }
  Status FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* out) override {
    return base_->GetFileSize(path, out);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status SyncDir(const std::string& /*path*/) override { return Status::OK(); }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* out) override {
    return base_->ListDir(path, out);
  }

 private:
  dmx::Env* const base_ = dmx::Env::Default();
};

NoSyncEnv no_sync_env;

// ---------------------------------------------------------------------------
// Machine fingerprint

struct Fingerprint {
  int nproc = 0;
  std::string cpu;
  double fsync_us = 0;
  std::string compiler = DMX_E2E_COMPILER;
  std::string build_type = DMX_E2E_BUILD_TYPE;
  std::string commit;
};

// Median of 50 (4 KiB append + fdatasync) in the database's filesystem.
bool MeasureFsync(const std::string& dir, double* median_us) {
  std::string path = dir + "/fsync_probe";
  int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::vector<char> block(4096, 'x');
  std::vector<double> us;
  bool ok = true;
  for (int i = 0; i < 50 && ok; ++i) {
    auto t0 = Clock::now();
    ok = pwrite(fd, block.data(), block.size(),
                static_cast<off_t>(i) * 4096) ==
             static_cast<ssize_t>(block.size()) &&
         fdatasync(fd) == 0;
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count());
  }
  close(fd);
  unlink(path.c_str());
  *median_us = Median(us);
  return ok;
}

Fingerprint TakeFingerprint(const std::string& dir) {
  Fingerprint fp;
  cpu_set_t set;
  CPU_ZERO(&set);
  fp.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                 ? CPU_COUNT(&set)
                 : static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      fp.cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  if (!MeasureFsync(dir, &fp.fsync_us)) fp.fsync_us = -1;
  const char* commit = getenv("DMX_E2E_COMMIT");
  fp.commit = commit != nullptr && *commit != 0 ? commit : "unknown";
  return fp;
}

// Runs `fn` on a fresh thread, as the clients run. Work timed outside the
// window goes there too: the engine allocates heavily, and the main
// thread's heap, fragmented by the oracle and earlier set-ups, made the
// planner probe ~1.8x slower than the same calls inside statements.
template <typename Fn>
void OnOwnThread(Fn&& fn) {
  std::thread(std::forward<Fn>(fn)).join();
}

// ---------------------------------------------------------------------------
// The database under test

struct Config {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  int64_t rows = 25000;
  std::string out = "build-e2e/results";
};

DatabaseOptions Options(const Config& cfg, const std::string& dir) {
  DatabaseOptions o;
  o.dir = dir;
  o.env = &no_sync_env;
  o.buffer_pool_pages = cfg.w->pool_pages;
  return o;
}

Status Exec(Session* s, const std::string& sql, QueryResult* r = nullptr) {
  QueryResult local;
  return s->Execute(sql, r != nullptr ? r : &local);
}

// Database::Open through the bulk load and CHECKPOINT. Row i of every table
// is (i, 'name<i>', 1000 + i*7919 mod 100000, 'd<i mod 50>'); the seed only
// shuffles the insertion order. `seconds` is the wall time without the
// reference work timed after every load batch, whose median is `ref_us`.
Status Setup(const Config& cfg, const std::string& dir,
             std::unique_ptr<Database>* db, std::vector<Oracle>* oracles,
             double* seconds, double* ref_us) {
  const Workload& w = *cfg.w;
  const int tables = w.tenants ? w.clients : 1;
  const int64_t per_table = cfg.rows / tables;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  auto t0 = Clock::now();
  Status s = Database::Open(Options(cfg, dir), db);
  if (!s.ok()) return s;
  Session session(db->get());
  for (int t = 0; t < tables; ++t) {
    const std::string name = TableName(w, t);
    for (const std::string& ddl :
         {"CREATE TABLE " + name +
              " (id INT NOT NULL, name STRING, salary DOUBLE, dept STRING)"
              " USING heap",
          "CREATE UNIQUE INDEX ON " + name + " (id)",
          "CREATE INDEX ON " + name + " (salary)",
          "CREATE INDEX ON " + name + " (dept) USING hash_index",
          "ALTER TABLE " + name + " ADD CHECK (salary >= 0)"}) {
      s = Exec(&session, ddl);
      if (!s.ok()) return s;
    }
  }
  std::mt19937_64 rng(cfg.seed);
  RefWork ref;
  std::vector<double> refs;
  Clock::duration ref_wall{};
  s = Exec(&session, "BEGIN");
  for (int t = 0; t < tables && s.ok(); ++t) {
    std::vector<int64_t> order(static_cast<size_t>(per_table));
    for (int64_t i = 0; i < per_table; ++i) order[static_cast<size_t>(i)] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t b = 0; b < order.size() && s.ok(); b += kLoadBatch) {
      std::string sql = "INSERT INTO " + TableName(w, t) + " VALUES ";
      for (size_t j = b; j < std::min(order.size(), b + kLoadBatch); ++j) {
        const int64_t i = order[j];
        if (j > b) sql += ",";
        sql += RowValues(i, "name" + std::to_string(i), InitialSalary(i));
      }
      s = Exec(&session, sql);
      const auto r0 = Clock::now();
      refs.push_back(ref.TimeUs());
      ref_wall += Clock::now() - r0;
    }
  }
  if (s.ok()) s = Exec(&session, "COMMIT");
  if (s.ok()) s = Exec(&session, "CHECKPOINT");
  if (!s.ok()) return s;
  *seconds =
      std::chrono::duration<double>(Clock::now() - t0 - ref_wall).count();
  *ref_us = Median(refs);

  if (oracles != nullptr) {
    oracles->assign(static_cast<size_t>(tables), Oracle());
    for (Oracle& o : *oracles) {
      for (int64_t i = 0; i < per_table; ++i) {
        o.Put(i, InitialSalary(i), "name" + std::to_string(i));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Clients

struct Sample {
  Kind kind;
  bool ok;
  uint32_t session;
  int64_t start_ns;  // from the window start
  int64_t end_ns;
};

struct Shared {
  Database* db = nullptr;
  const Config* cfg = nullptr;
  std::vector<Oracle>* oracles = nullptr;
  Clock::time_point origin;
  int64_t window_start_ns = 0;  // from origin
  int64_t window_end_ns = 0;
  std::atomic<bool> wrong{false};
};

struct Client {
  int index = 0;
  std::mt19937_64 rng;
  std::vector<Sample> samples;
  std::vector<std::string> errors;  // first few failed statements
  std::string wrong;                // first wrong answer
  uint64_t attempted = 0;           // in the window
  uint64_t failed = 0;
  uint32_t sessions = 0;
  RefWork ref;
  std::vector<RefSample> refs;  // in the window
  int64_t next_ref_ns = 0;      // from origin
};

struct Stmt {
  Kind kind = kSelect;
  int64_t id = 0;
  double value = 0;  // range low bound, or the new salary
  std::string name;  // the new name
  std::string sql;
};

Kind PickKind(const Workload& w, std::mt19937_64& rng) {
  int r = static_cast<int>(rng() % 100);
  for (int k = 0; k < kNumKinds; ++k) {
    r -= w.mix[static_cast<size_t>(k)];
    if (r < 0) return static_cast<Kind>(k);
  }
  return kSelect;
}

int64_t Uniform(std::mt19937_64& rng, int64_t n) {
  return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
}

// The next statement on table `t`, whose contents `o` describes.
Stmt NextStmt(const Workload& w, const std::string& t, const Oracle& o,
              std::mt19937_64& rng) {
  Stmt st;
  st.kind = PickKind(w, rng);
  if (IsWrite(st.kind) && st.kind != kInsert && o.live.empty()) {
    st.kind = kInsert;
  }
  auto live_id = [&] {
    return o.live[static_cast<size_t>(
        Uniform(rng, static_cast<int64_t>(o.live.size())))];
  };
  switch (st.kind) {
    case kSelect:
      st.id = Uniform(rng, o.next_id);
      st.sql = "SELECT * FROM " + t + " WHERE id = " +
               (w.prepared ? std::string("?") : std::to_string(st.id));
      break;
    case kRange:
      st.value = 1000.0 + static_cast<double>(Uniform(rng, 100000 - 999));
      st.sql = "SELECT * FROM " + t + " WHERE salary BETWEEN " +
               Num(st.value) + " AND " + Num(st.value + kRangeWidth);
      break;
    case kInsert:
      st.id = o.dead.empty()
                  ? o.next_id
                  : o.dead[static_cast<size_t>(
                        Uniform(rng, static_cast<int64_t>(o.dead.size())))];
      st.value = 1000.0 + static_cast<double>(Uniform(rng, 100000));
      st.name = "name" + std::to_string(st.id);
      st.sql = "INSERT INTO " + t + " VALUES " +
               RowValues(st.id, st.name, st.value);
      break;
    case kUpdateSalary:
      st.id = live_id();
      st.value = 1000.0 + static_cast<double>(Uniform(rng, 100000));
      st.sql = "UPDATE " + t + " SET salary = " + Num(st.value) +
               " WHERE id = " + std::to_string(st.id);
      break;
    case kUpdateName:
      st.id = live_id();
      st.name = "n" + std::to_string(rng() % 1000000000);
      st.sql = "UPDATE " + t + " SET name = '" + st.name + "' WHERE id = " +
               std::to_string(st.id);
      break;
    case kDelete:
      st.id = live_id();
      st.sql = "DELETE FROM " + t + " WHERE id = " + std::to_string(st.id);
      break;
    default:
      break;
  }
  return st;
}

// Returns "" when `r` is the right answer to `st`, else what is wrong; on
// success the oracle takes the statement's effect.
std::string CheckAndApply(const Stmt& st, const QueryResult& r, Oracle& o) {
  switch (st.kind) {
    case kSelect: {
      auto it = o.rows.find(st.id);
      if (it == o.rows.end()) {
        return r.rows.empty() ? "" : "select of a deleted id returned rows";
      }
      if (r.rows.size() != 1 || !RowMatches(r.rows[0], st.id, it->second)) {
        return "select returned " + std::to_string(r.rows.size()) +
               " rows, or a row that differs from the oracle";
      }
      return "";
    }
    case kRange: {
      std::vector<int64_t> want, got;
      for (auto it = o.by_salary.lower_bound({st.value, INT64_MIN});
           it != o.by_salary.end() && it->first <= st.value + kRangeWidth;
           ++it) {
        want.push_back(it->second);
      }
      for (const auto& row : r.rows) {
        if (row.size() != 4 || row[0].type() != dmx::TypeId::kInt64) {
          return "range select returned a malformed row";
        }
        auto it = o.rows.find(row[0].int_value());
        if (it == o.rows.end() ||
            !RowMatches(row, row[0].int_value(), it->second)) {
          return "range select returned a row that differs from the oracle";
        }
        got.push_back(row[0].int_value());
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (want != got) {
        return "range select returned " + std::to_string(got.size()) +
               " rows, oracle has " + std::to_string(want.size());
      }
      return "";
    }
    default:
      break;
  }
  if (r.affected != 1) {
    return std::string(kKindNames[st.kind]) + " affected " +
           std::to_string(r.affected) + " rows, expected 1";
  }
  switch (st.kind) {
    case kInsert: o.Put(st.id, st.value, st.name); break;
    case kUpdateSalary: o.SetSalary(st.id, st.value); break;
    case kUpdateName: o.rows.at(st.id).name = st.name; break;
    case kDelete: o.Erase(st.id); break;
    default: break;
  }
  return "";
}

void RunClient(Shared* sh, Client* c) {
  const Workload& w = *sh->cfg->w;
  const int table = w.tenants ? c->index : 0;
  const std::string name = TableName(w, table);
  Oracle& oracle = (*sh->oracles)[static_cast<size_t>(table)];
  std::unique_ptr<Session> session;
  uint64_t in_session = kStatementsPerSession;
  QueryResult result;
  while (!sh->wrong.load(std::memory_order_relaxed)) {
    if (NowNs(sh->origin) >= sh->window_end_ns) break;
    if (in_session == kStatementsPerSession) {
      session = std::make_unique<Session>(sh->db);
      in_session = 0;
      ++c->sessions;
    }
    if (const int64_t now = NowNs(sh->origin); now >= c->next_ref_ns) {
      const double us = c->ref.TimeUs();
      if (now >= sh->window_start_ns) {
        c->refs.push_back(RefSample{now - sh->window_start_ns, us});
      }
      c->next_ref_ns = NowNs(sh->origin) + kRefEveryNs;
    }
    Stmt st = NextStmt(w, name, oracle, c->rng);
    const int64_t start = NowNs(sh->origin);
    Status s = w.prepared && st.kind == kSelect
                   ? session->Execute(st.sql, {Value::Int(st.id)}, &result)
                   : session->Execute(st.sql, &result);
    const int64_t end = NowNs(sh->origin);
    ++in_session;
    const bool measured = start >= sh->window_start_ns;
    std::string wrong;
    if (s.ok()) {
      wrong = CheckAndApply(st, result, oracle);
    } else if (c->errors.size() < kMaxLoggedErrors) {
      c->errors.push_back(st.sql.substr(0, 120) + ": " + s.ToString());
    }
    if (!wrong.empty()) {
      c->wrong = wrong + " [" + st.sql.substr(0, 120) + "]";
      sh->wrong.store(true, std::memory_order_relaxed);
      break;
    }
    if (!measured) continue;
    ++c->attempted;
    if (!s.ok()) ++c->failed;
    c->samples.push_back(Sample{st.kind, s.ok(), c->sessions,
                                start - sh->window_start_ns,
                                end - sh->window_start_ns});
  }
}

// ---------------------------------------------------------------------------
// Verification after the window: counts, CHECK, spot checks, then a
// simulated crash, restart recovery and the same checks again.

std::string VerifyTables(Database* db, const Config& cfg,
                         const std::vector<Oracle>& oracles,
                         std::mt19937_64& rng, const char* when) {
  Session session(db);
  QueryResult r;
  for (size_t t = 0; t < oracles.size(); ++t) {
    const Oracle& o = oracles[t];
    const std::string name = TableName(*cfg.w, static_cast<int>(t));
    Status s = Exec(&session, "SELECT COUNT(*) FROM " + name, &r);
    if (!s.ok()) return std::string(when) + ": COUNT failed: " + s.ToString();
    if (r.rows.size() != 1 || r.rows[0].empty() ||
        r.rows[0][0] != Value::Int(static_cast<int64_t>(o.rows.size()))) {
      return std::string(when) + ": COUNT(*) of " + name +
             " differs from the oracle's " + std::to_string(o.rows.size());
    }
    s = Exec(&session, "CHECK " + name, &r);
    if (!s.ok() || r.message.find(": clean") == std::string::npos) {
      return std::string(when) + ": CHECK " + name + " is not clean: " +
             (s.ok() ? r.message : s.ToString());
    }
    for (int i = 0; i < kSpotChecks && !o.live.empty(); ++i) {
      int64_t id = o.live[rng() % o.live.size()];
      s = Exec(&session,
               "SELECT * FROM " + name + " WHERE id = " + std::to_string(id),
               &r);
      if (!s.ok() || r.rows.size() != 1 ||
          !RowMatches(r.rows[0], id, o.rows.at(id))) {
        return std::string(when) + ": row " + std::to_string(id) + " of " +
               name + " differs from the oracle";
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Traced run: out-of-band planner probe and span output

struct Span {
  uint64_t id;
  uint64_t parent;
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
};

// Per-call times are nearly fixed work, so the probe reports medians: they
// ignore the machine's stalls, which a mean of 1,000 short calls does not.
struct Probe {
  std::vector<double> plan_us;
  std::map<std::string, std::vector<double>> cost_us;  // per path type
  std::vector<Span> spans;
};

// Times PlanAccess and Database::EstimateCost on every access path — the
// storage method and each attachment instance that estimates costs, usable
// for the predicate or not, as the planner asks them all — for
// kProbePredicates predicates of the workload's planning shapes, drawn in
// proportion to the mix (inserts do not plan).
Status RunProbe(Database* db, const Config& cfg, std::mt19937_64& rng,
                Clock::time_point origin, int64_t window_start_ns,
                Probe* out) {
  const Workload& w = *cfg.w;
  const dmx::RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(db->FindRelation(TableName(w, 0), &desc));
  const dmx::ExtensionRegistry* registry = db->registry();
  std::vector<std::pair<dmx::AccessPathId, std::string>> paths = {
      {dmx::AccessPathId::StorageMethod(), registry->sm_ops(desc->sm_id).name}};
  for (dmx::AtId at = 0; at < registry->num_attachment_types(); ++at) {
    const dmx::AtOps& ops = registry->at_ops(at);
    if (!desc->HasAttachment(at) || ops.cost == nullptr ||
        ops.list_instances == nullptr) {
      continue;
    }
    std::vector<uint32_t> instances;
    DMX_RETURN_IF_ERROR(
        ops.list_instances(dmx::Slice(desc->at_desc[at]), &instances));
    for (uint32_t inst : instances) {
      paths.push_back({dmx::AccessPathId::Attachment(at, inst), ops.name});
    }
  }
  auto rel_ns = [&] { return NowNs(origin) - window_start_ns; };

  uint64_t next_id = 1;
  const uint64_t root = next_id++;
  const int64_t root_start = rel_ns();
  for (int n = 0; n < kProbePredicates; ++n) {
    Kind k = PickKind(w, rng);
    while (k == kInsert) k = PickKind(w, rng);
    ExprPtr pred;
    if (k == kRange) {
      double lo = 1000.0 + static_cast<double>(Uniform(rng, 100000 - 999));
      pred = Expr::And(
          Expr::Binary(ExprOp::kGe, Expr::Field(kSalary),
                       Expr::Const(Value::Double(lo))),
          Expr::Binary(ExprOp::kLe, Expr::Field(kSalary),
                       Expr::Const(Value::Double(lo + kRangeWidth))));
    } else if (w.prepared) {
      pred = Expr::Eq(Expr::Field(kId), Expr::Param(0));
    } else {
      pred = Expr::Eq(Expr::Field(kId),
                      Expr::Const(Value::Int(Uniform(rng, cfg.rows))));
    }
    std::vector<ExprPtr> conjuncts;
    dmx::SplitConjuncts(pred, &conjuncts);

    dmx::Transaction* txn = db->Begin();
    dmx::AccessPlan plan;
    const int64_t p0 = rel_ns();
    Status s = dmx::PlanAccess(db, txn, desc, pred, &plan);
    const int64_t p1 = rel_ns();
    out->plan_us.push_back(static_cast<double>(p1 - p0) / 1e3);
    out->spans.push_back(Span{next_id++, root, "plan_access", p0, p1});
    for (size_t i = 0; i < paths.size() && s.ok(); ++i) {
      dmx::AccessCost cost;
      const int64_t c0 = rel_ns();
      s = db->EstimateCost(txn, desc, paths[i].first, conjuncts, &cost);
      const int64_t c1 = rel_ns();
      out->cost_us[paths[i].second].push_back(
          static_cast<double>(c1 - c0) / 1e3);
      out->spans.push_back(
          Span{next_id++, root,
               "estimate_cost:" + paths[i].second + "#" +
                   std::to_string(paths[i].first.instance),
               c0, c1});
    }
    Status c = db->Commit(txn);
    if (!s.ok()) return s;
    if (!c.ok()) return c;
  }
  out->spans.push_back(Span{root, 0, "probe", root_start, rel_ns()});
  return Status::OK();
}

bool WriteSpans(const std::string& path, const std::vector<Client>& clients,
                const Probe& probe) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  uint64_t id = 1;
  for (const Client& c : clients) {
    for (const Sample& s : c.samples) {
      f << "{\"id\":" << id++ << ",\"parent\":0,\"client\":" << c.index
        << ",\"session\":" << s.session << ",\"class\":\""
        << kKindNames[s.kind] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"status\":\""
        << (s.ok ? "ok" : "error") << "\"}\n";
    }
  }
  for (const Span& s : probe.spans) {
    f << "{\"id\":" << id + s.id << ",\"parent\":"
      << (s.parent == 0 ? 0 : id + s.parent) << ",\"class\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"status\":\"ok\"}\n";
  }
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t count;  // samples behind a timing; 0 otherwise
};

// The end-to-end metrics every workload reports (BENCHMARK.json's
// end_to_end list); the per-class latencies beside them are extra detail.
const char* const kContractMetrics[] = {"throughput_ref", "select_p50_ref",
                                        "setup_s", "rss_mb", "space_amp"};

// Looks up `"name": {"value": X` in an earlier result file.
bool ReadResultValue(const std::string& path, const std::string& name,
                     double* out) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"" + name + "\": {\"value\": ";
  size_t i = text.find(key);
  if (i == std::string::npos) return false;
  *out = std::strtod(text.c_str() + i + key.size(), nullptr);
  return true;
}

int Usage() {
  fprintf(stderr,
          "usage: dmx_e2e --workload read_adhoc|read_prepared|write_mix|"
          "tenants_4s --seed N --seconds S --trace 0|1 [--rows N] "
          "[--out DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) cfg->w = &w;
      }
      if (cfg->w == nullptr) return false;
      continue;
    }
    if (a == "--out") {
      cfg->out = v;
      continue;
    }
    long long n = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != 0 || n < 0) return false;
    if (a == "--seed") {
      cfg->seed = static_cast<uint64_t>(n);
    } else if (a == "--seconds" && n >= 1 && n <= 3600) {
      cfg->seconds = static_cast<int>(n);
    } else if (a == "--trace" && n <= 1) {
      cfg->trace = n == 1;
    } else if (a == "--rows" && n >= 1000 && n <= 10000000) {
      cfg->rows = n;
    } else {
      return false;
    }
  }
  return cfg->w != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) return Usage();
  const Workload& w = *cfg.w;
  const std::string tag = std::string(w.name) + "." +
                          std::to_string(cfg.seed) +
                          (cfg.trace ? ".traced" : "");
  // Databases live under build-e2e/work, beside the build.
  const std::string work = std::string("build-e2e/work/") + w.name;
  const std::string dir = work + "/db";
  std::error_code ec;
  fs::create_directories(work, ec);
  fs::create_directories(cfg.out, ec);
  std::unique_ptr<Database> db;
  auto fail = [&](const std::string& why) {
    fprintf(stderr, "dmx_e2e %s: %s\n", w.name, why.c_str());
    db.reset();
    fs::remove_all(work, ec);
    return 1;
  };
  // Phase timings go to stderr, so a slow run shows where its time went.
  auto last_phase = Clock::now();
  auto phase = [&](const char* name) {
    const auto now = Clock::now();
    fprintf(stderr, "dmx_e2e %s: %s %.2f s\n", w.name, name,
            std::chrono::duration<double>(now - last_phase).count());
    last_phase = now;
  };

  const Fingerprint fp = TakeFingerprint(work);
  phase("fingerprint");

  // -- set-up (the run's own database) -----------------------------------
  // setup_s is the median of kSetups set-ups, each in reference seconds.
  std::vector<Oracle> oracles;
  std::vector<double> setup_wall_s, setup_s;
  Status s;
  auto setup = [&](std::unique_ptr<Database>* into,
                   std::vector<Oracle>* oracles_out) {
    double secs = 0, ref_us = 0;
    OnOwnThread(
        [&] { s = Setup(cfg, dir, into, oracles_out, &secs, &ref_us); });
    if (s.ok()) {
      setup_wall_s.push_back(secs);
      setup_s.push_back(secs * kRefUs / ref_us);
    }
    return s;
  };
  if (!setup(&db, &oracles).ok()) {
    return fail("setup failed: " + s.ToString());
  }
  // Space right after the load and CHECKPOINT: the window's inserts append
  // to the heap, so space after it would grow with the run's speed.
  uint64_t live_rows = 0;
  double row_bytes = 0;
  for (const Oracle& o : oracles) {
    live_rows += o.rows.size();
    row_bytes += o.MeanRowBytes() * static_cast<double>(o.rows.size());
  }
  const double space_amp =
      Ratio(static_cast<double>(DirBytes(dir, /*wal=*/false)), row_bytes);
  phase("setup");

  // -- warm-up and measured window ----------------------------------------
  Shared sh;
  sh.db = db.get();
  sh.cfg = &cfg;
  sh.oracles = &oracles;
  const int64_t warmup_ns = static_cast<int64_t>(cfg.seconds) * 200000000;
  const int64_t window_ns = static_cast<int64_t>(cfg.seconds) * 1000000000;
  sh.origin = Clock::now();
  sh.window_start_ns = warmup_ns;
  sh.window_end_ns = warmup_ns + window_ns;
  std::vector<Client> clients(static_cast<size_t>(w.clients));
  for (int i = 0; i < w.clients; ++i) {
    clients[static_cast<size_t>(i)].index = i;
    clients[static_cast<size_t>(i)].rng.seed(cfg.seed * 1000003 +
                                             static_cast<uint64_t>(i) + 1);
  }
  std::vector<std::thread> threads;
  for (Client& c : clients) threads.emplace_back(RunClient, &sh, &c);
  std::this_thread::sleep_until(sh.origin +
                                std::chrono::nanoseconds(warmup_ns));
  dmx::MetricsRegistry::Global()->ResetAll();
  const uint64_t wal_before = DirBytes(dir, /*wal=*/true);
  for (std::thread& t : threads) t.join();
  const WindowRegistry reg = ReadWindowRegistry(db->registry());
  const uint64_t wal_bytes = DirBytes(dir, /*wal=*/true) - wal_before;
  // Heap pages the allocator holds free are handed back first, and the
  // driver's own records, which grow with the run's speed, are left out:
  // without the trim, ten runs of tenants_4s read from 64 to 71 MiB.
  malloc_trim(0);
  double records_bytes = 0;
  for (const Client& c : clients) {
    records_bytes += static_cast<double>(c.samples.size() * sizeof(Sample) +
                                         c.refs.size() * sizeof(RefSample));
  }
  const double rss_mb = RssMiB() - records_bytes / (1024.0 * 1024.0);
  phase("warm-up and window");

  for (const Client& c : clients) {
    if (!c.wrong.empty()) {
      return fail("wrong answer from client " + std::to_string(c.index) +
                  ": " + c.wrong);
    }
  }

  // -- traced run: planner probe ------------------------------------------
  std::mt19937_64 check_rng(cfg.seed ^ 0x5eed);
  Probe probe;
  if (cfg.trace) {
    OnOwnThread([&] {
      s = RunProbe(db.get(), cfg, check_rng, sh.origin, sh.window_start_ns,
                   &probe);
    });
    if (!s.ok()) return fail("planner probe failed: " + s.ToString());
    phase("planner probe");
  }

  // -- verification, crash, recovery, verification ------------------------
  std::string wrong = VerifyTables(db.get(), cfg, oracles, check_rng,
                                   "after the window");
  if (!wrong.empty()) return fail(wrong);
  phase("verification");
  db->SimulateCrashOnClose();
  db.reset();
  s = Database::Open(Options(cfg, dir), &db);
  if (!s.ok()) return fail("reopen after crash failed: " + s.ToString());
  wrong = VerifyTables(db.get(), cfg, oracles, check_rng, "after recovery");
  if (!wrong.empty()) return fail(wrong);
  db.reset();
  phase("crash, recovery and verification");

  // -- the remaining set-ups, for setup_s ---------------------------------
  for (int i = 1; i < kSetups; ++i) {
    std::unique_ptr<Database> extra;
    if (!setup(&extra, nullptr).ok()) {
      return fail("setup failed: " + s.ToString());
    }
  }
  fs::remove_all(work, ec);
  phase("repeated setups");

  // -- end-to-end metrics -------------------------------------------------
  // Throughput is the window's successful statements per second; latencies
  // are percentiles over the whole window. The gated two, throughput_ref
  // and select_p50_ref, scale each statement by the reference work's
  // duration around it (see "Machine speed"): at reference speed it would
  // have taken kRefUs / ref of its time, so it counts as ref / kRefUs
  // statements.
  std::vector<double> all_refs;
  for (const Client& c : clients) {
    if (c.refs.empty()) return fail("no reference work timed in the window");
    for (const RefSample& r : c.refs) all_refs.push_back(r.us);
  }
  const double window_s = static_cast<double>(cfg.seconds);
  double ref_completed = 0;
  uint64_t attempted = 0, failed = 0, completed = 0;
  std::vector<std::string> errors;
  std::array<std::vector<double>, kNumLat> lat;
  std::vector<double> select_ref_us;
  std::array<uint64_t, kNumKinds> ok_by_kind{};
  double span_sum_us = 0;
  for (const Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
    for (const std::string& e : c.errors) errors.push_back(e);
    for (const Sample& x : c.samples) {
      const double us = static_cast<double>(x.end_ns - x.start_ns) / 1000.0;
      span_sum_us += us;
      if (!x.ok) continue;
      ++ok_by_kind[x.kind];
      lat[LatOf(x.kind)].push_back(us);
      const double ref = RefAround(c.refs, x.start_ns);
      if (x.kind == kSelect) select_ref_us.push_back(us * kRefUs / ref);
      if (x.end_ns < window_ns) {
        ++completed;
        ref_completed += ref / kRefUs;
      }
    }
  }
  if (attempted == 0) return fail("no statement completed in the window");
  for (const std::string& e : errors) {
    fprintf(stderr, "dmx_e2e %s: statement failed: %s\n", w.name, e.c_str());
  }

  std::vector<Metric> e2e;
  e2e.push_back({"throughput_ref", ref_completed / window_s, "stmt/ref_s",
                 completed});
  if (!select_ref_us.empty()) {
    e2e.push_back({"select_p50_ref", Percentile(select_ref_us, 0.50),
                   "ref_us", select_ref_us.size()});
  }
  e2e.push_back({"throughput_ops", static_cast<double>(completed) / window_s,
                 "stmt/s", completed});
  for (size_t l = 0; l < kNumLat; ++l) {
    const std::string name = kLatNames[l];
    if (lat[l].empty()) continue;
    e2e.push_back(
        {name + "_p50_us", Percentile(lat[l], 0.50), "us", lat[l].size()});
    if (l != kLatRange) {
      e2e.push_back(
          {name + "_p99_us", Percentile(lat[l], 0.99), "us", lat[l].size()});
    }
  }
  e2e.push_back({"error_rate",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "fraction", attempted});
  e2e.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  e2e.push_back(
      {"setup_wall_s", Median(setup_wall_s), "s", setup_wall_s.size()});
  e2e.push_back({"ref_us", Median(all_refs), "us", all_refs.size()});
  e2e.push_back({"rss_mb", rss_mb, "MiB", 0});
  e2e.push_back({"space_amp", space_amp, "ratio", live_rows});

  // -- per-layer metrics and the budget (traced run) ----------------------
  std::vector<Metric> layer;
  std::vector<Metric> budget;
  if (cfg.trace) {
    const double stmts = static_cast<double>(attempted);
    const double writes = static_cast<double>(
        ok_by_kind[kInsert] + ok_by_kind[kUpdateSalary] +
        ok_by_kind[kUpdateName] + ok_by_kind[kDelete]);
    auto count = [&](const char* name) {
      return static_cast<double>(reg.counters.at(name));
    };
    auto dispatch = [&](const char* key) {
      auto it = reg.dispatch.find(key);
      return it == reg.dispatch.end() ? Dispatch{} : it->second;
    };
    const double hits = count("plancache.hits");
    const double misses = count("plancache.misses");
    const double bp_hits = count("bufferpool.hits");
    const double bp_misses = count("bufferpool.misses");
    const dmx::HistogramSnapshot& append = reg.hists.at("wal.append_ns");
    const dmx::HistogramSnapshot& sync = reg.hists.at("wal.sync_ns");
    const dmx::HistogramSnapshot& group = reg.hists.at("wal.group_size");
    const dmx::HistogramSnapshot& commit = reg.hists.at("txn.commit_ns");
    const double append_ns =
        static_cast<double>(append.sum) *
        Ratio(count("wal.appends"), static_cast<double>(append.count));

    // The budget adds only timers that never nest inside one another (see
    // README "Budget"): storage-method and attachment dispatch, lock
    // waits, commit (which holds the WAL append and sync of the commit
    // record), and planning. Everything else is the residual.
    const double planned =
        misses + static_cast<double>(ok_by_kind[kUpdateSalary] +
                                     ok_by_kind[kUpdateName] +
                                     ok_by_kind[kDelete]);
    const double sm_us = static_cast<double>(dispatch("sm").ns) / 1e3;
    const double at_us = static_cast<double>(dispatch("at").ns) / 1e3;
    const double lock_us =
        static_cast<double>(reg.hists.at("lock.wait_ns").sum) / 1e3;
    const double commit_us = static_cast<double>(commit.sum) / 1e3;
    const double plan_each_us = Median(probe.plan_us);
    const double plan_us = plan_each_us * planned;
    const double residual_us =
        span_sum_us - (sm_us + at_us + lock_us + commit_us + plan_us);
    budget = {{"plan", plan_us, "us", static_cast<uint64_t>(planned)},
              {"sm_dispatch", sm_us, "us", dispatch("sm").calls},
              {"at_dispatch", at_us, "us", dispatch("at").calls},
              {"lock_wait", lock_us, "us", reg.counters.at("lock.waits")},
              {"commit", commit_us, "us", commit.count},
              {"residual", residual_us, "us", 0},
              {"statements", span_sum_us, "us", attempted}};
    auto busy_us = [&](const char* key) {
      return static_cast<double>(dispatch(key).ns) / 1e3 / stmts;
    };

    layer = {
        {"query.plancache.hit_ratio", Ratio(hits, hits + misses), "ratio", 0},
        {"query.plan_us", plan_each_us, "us", probe.plan_us.size()},
        {"query.cost_us.btree_index", Median(probe.cost_us["btree_index"]),
         "us", probe.cost_us["btree_index"].size()},
        {"query.cost_us.hash_index", Median(probe.cost_us["hash_index"]),
         "us", probe.cost_us["hash_index"].size()},
        {"query.cost_us.heap", Median(probe.cost_us["heap"]), "us",
         probe.cost_us["heap"].size()},
        {"bufferpool.fetches_per_stmt", (bp_hits + bp_misses) / stmts,
         "count", 0},
        {"bufferpool.hit_ratio", Ratio(bp_hits, bp_hits + bp_misses), "ratio",
         0},
        {"bufferpool.misses_per_stmt", bp_misses / stmts, "count", 0},
        {"bufferpool.evictions_per_stmt",
         count("bufferpool.evictions") / stmts, "count", 0},
        {"bufferpool.writebacks_per_stmt",
         count("bufferpool.writebacks") / stmts, "count", 0},
        {"sm.heap.calls_per_stmt",
         static_cast<double>(dispatch("sm.heap").calls) / stmts, "count", 0},
        {"sm.heap.busy_us_per_stmt", busy_us("sm.heap"), "us", 0},
        {"at.btree_index.calls_per_stmt",
         static_cast<double>(dispatch("at.btree_index").calls) / stmts,
         "count", 0},
        {"at.btree_index.busy_us_per_stmt", busy_us("at.btree_index"), "us",
         0},
        {"at.hash_index.busy_us_per_stmt", busy_us("at.hash_index"), "us", 0},
        {"at.check.busy_us_per_stmt", busy_us("at.check"), "us", 0},
        {"lock.acquisitions_per_stmt", count("lock.acquisitions") / stmts,
         "count", 0},
        {"lock.waits_per_stmt", count("lock.waits") / stmts, "count", 0},
        {"lock.wait_us_per_stmt", lock_us / stmts, "us", 0},
        {"lock.deadlocks", count("lock.deadlocks"), "count", 0},
        {"lock.timeouts", count("lock.timeouts"), "count", 0},
        {"txn.aborts_per_stmt", count("txn.aborts") / stmts, "count", 0},
        {"txn.commit_us_per_write", Ratio(commit_us, writes), "us", 0},
        {"wal.sync_us_mean",
         Ratio(static_cast<double>(sync.sum), static_cast<double>(sync.count)) /
             1e3,
         "us", sync.count},
        {"wal.append_us_per_stmt", append_ns / 1e3 / stmts, "us",
         append.count},
        {"wal.bytes_per_write", Ratio(static_cast<double>(wal_bytes), writes),
         "B", 0},
        {"wal.syncs_per_commit", Ratio(count("wal.syncs"), writes), "count",
         0},
        {"wal.group_size_mean",
         Ratio(static_cast<double>(group.sum),
               static_cast<double>(group.count)),
         "count", group.count},
        {"query.residual_us_per_stmt", residual_us / stmts, "us", 0},
        {"query.residual_share", Ratio(residual_us, span_sum_us), "ratio", 0},
    };
    double untraced = 0;
    if (ReadResultValue(cfg.out + "/" + w.name + "." +
                            std::to_string(cfg.seed) + ".json",
                        "throughput_ref", &untraced) &&
        untraced > 0) {
      layer.push_back({"trace.overhead", 1 - e2e[0].value / untraced,
                       "ratio", 0});
    }
    if (!WriteSpans(cfg.out + "/" + w.name + ".spans.jsonl", clients,
                    probe)) {
      return fail("cannot write the span file");
    }
  }

  // -- output ---------------------------------------------------------------
  auto metric_lines = [&](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      printf("%s %s %s %s", w.name, m.name.c_str(), JsonNum(m.value).c_str(),
             m.unit.c_str());
      if (m.count > 0) printf(" n=%" PRIu64, m.count);
      printf("\n");
    }
  };
  metric_lines(e2e);
  metric_lines(layer);
  if (!budget.empty()) {
    const double total = budget.back().value;
    printf("%s budget: layer, total ms, us/stmt, share of statement time\n",
           w.name);
    for (const Metric& b : budget) {
      printf("%s budget %-12s %10.1f ms %9.2f us %6.1f%%\n", w.name,
             b.name.c_str(), b.value / 1e3,
             b.value / static_cast<double>(attempted),
             100 * Ratio(b.value, total));
    }
  }

  auto metrics_json = [](const std::vector<Metric>& ms, bool counts) {
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      if (i) out += ", ";
      out += JsonStr(ms[i].name) + ": {\"value\": " + JsonNum(ms[i].value) +
             ", \"unit\": " + JsonStr(ms[i].unit);
      if (counts) out += ", \"count\": " + std::to_string(ms[i].count);
      out += "}";
    }
    return out + "}";
  };
  std::string setups;
  for (double v : setup_s) setups += (setups.empty() ? "" : ", ") + JsonNum(v);
  std::string errs;
  for (const std::string& e : errors) {
    errs += (errs.empty() ? "" : ", ") + JsonStr(e);
  }
  std::ofstream full(cfg.out + "/" + tag + ".json", std::ios::trunc);
  full << "{\"workload\": " << JsonStr(w.name) << ", \"seed\": " << cfg.seed
       << ", \"trace\": " << (cfg.trace ? "true" : "false")
       << ", \"seconds\": " << cfg.seconds << ", \"rows\": " << cfg.rows
       << ", \"clients\": " << w.clients
       << ", \"pool_pages\": " << w.pool_pages
       << ",\n \"fingerprint\": {\"nproc\": " << fp.nproc
       << ", \"cpu\": " << JsonStr(fp.cpu)
       << ", \"fsync_us\": " << JsonNum(fp.fsync_us)
       << ", \"compiler\": " << JsonStr(fp.compiler)
       << ", \"build_type\": " << JsonStr(fp.build_type)
       << ", \"commit\": " << JsonStr(fp.commit) << "},\n \"correct\": true"
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"errors\": [" << errs << "], \"setup_runs_s\": [" << setups
       << "],\n \"metrics\": " << metrics_json(e2e, true)
       << ",\n \"per_layer\": " << metrics_json(layer, true)
       << ",\n \"budget\": " << metrics_json(budget, true) << "}\n";
  full.close();
  if (!full) return fail("cannot write " + cfg.out + "/" + tag + ".json");

  std::vector<Metric> summary;
  if (cfg.trace) {
    // trace.overhead needs the untraced run beside it, so it is not one of
    // BENCHMARK.json's per-layer metrics.
    for (const Metric& m : layer) {
      if (m.name != "trace.overhead") summary.push_back(m);
    }
  } else {
    for (const char* name : kContractMetrics) {
      for (const Metric& m : e2e) {
        if (m.name == name) summary.push_back(m);
      }
    }
  }
  printf("{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         attempted, failed, metrics_json(summary, false).c_str());
  return 0;
}
