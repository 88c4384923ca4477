// dmx_e2e_repro: one-command reproductions of the engine defects that shape
// the dmx_e2e workloads (bench/e2e/README.md, "Engine defects").
//
//   build-e2e/dmx_e2e_repro shared_writers|reader_writer|param_race|
//                           insert_param [DIR]
//
// Each case sets up the Figure-1 EMPLOYEE table in DIR (default
// build-e2e/repro/<case>, emptied first), drives it through
// Session::Execute, and prints what it saw. Exit status 1 means the defect
// reproduced, 0 that it did not.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/query/sql.h"

namespace {

using dmx::Database;
using dmx::QueryResult;
using dmx::Session;
using dmx::Status;
using dmx::Value;

// Per-thread tally: statements run, statements that failed or answered
// wrongly, and the first few messages.
struct Tally {
  int runs = 0;
  int bad = 0;
  std::vector<std::string> first;

  void Bad(const std::string& what) {
    ++bad;
    if (first.size() < 3) first.push_back(what);
  }
};

int Report(const char* defect, const std::vector<Tally>& tallies) {
  int runs = 0, bad = 0;
  for (const Tally& t : tallies) {
    runs += t.runs;
    bad += t.bad;
    for (const std::string& m : t.first) printf("  %s\n", m.c_str());
  }
  printf("%s: %d of %d statements failed or answered wrongly\n", defect, bad,
         runs);
  if (bad == 0) return 0;
  printf("reproduced: %s\n", defect);
  return 1;
}

std::string Insert(int64_t id) {
  std::string sql = "INSERT INTO employee VALUES (";
  sql += std::to_string(id) + ", 'name" + std::to_string(id) + "', " +
         std::to_string(1000 + id % 100000) + ".0, 'd" +
         std::to_string(id % 50) + "')";
  return sql;
}

Status Setup(const std::string& dir, int64_t rows,
             std::unique_ptr<Database>* db) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  dmx::DatabaseOptions options;
  options.dir = dir;
  options.buffer_pool_pages = 4096;
  DMX_RETURN_IF_ERROR(Database::Open(options, db));
  Session s(db->get());
  QueryResult r;
  for (const char* ddl :
       {"CREATE TABLE employee (id INT NOT NULL, name STRING, salary DOUBLE,"
        " dept STRING) USING heap",
        "CREATE UNIQUE INDEX ON employee (id)",
        "CREATE INDEX ON employee (salary)",
        "CREATE INDEX ON employee (dept) USING hash_index",
        "ALTER TABLE employee ADD CHECK (salary >= 0)"}) {
    DMX_RETURN_IF_ERROR(s.Execute(ddl, &r));
  }
  for (int64_t id = 0; id < rows; ++id) {
    DMX_RETURN_IF_ERROR(s.Execute(Insert(id), &r));
  }
  return Status::OK();
}

// `n` autocommit writes in the write_mix proportions (insert 2 : update 3
// : delete 1) on ids from `base` up, each on a row this writer inserted.
void MixedWrites(Database* db, int64_t base, int n, Tally* tally) {
  Session s(db);
  QueryResult r;
  std::mt19937_64 rng(static_cast<uint64_t>(base) + 1);
  std::vector<int64_t> live;
  int64_t next = base;
  for (int i = 0; i < n; ++i) {
    const uint64_t op = live.empty() ? 0 : rng() % 6;
    std::string sql;
    if (op < 2) {
      live.push_back(next);
      sql = Insert(next++);
    } else {
      const size_t pos = rng() % live.size();
      const std::string id = std::to_string(live[pos]);
      if (op < 5) {
        sql = "UPDATE employee SET salary = " +
              std::to_string(1000 + rng() % 100000) + ".0 WHERE id = " + id;
      } else {
        sql = "DELETE FROM employee WHERE id = " + id;
        live[pos] = live.back();
        live.pop_back();
      }
    }
    ++tally->runs;
    Status st = s.Execute(sql, &r);
    if (!st.ok()) tally->Bad(sql.substr(0, 40) + "...: " + st.ToString());
  }
}

// Four sessions write disjoint rows of one table.
int SharedWriters(Database* db) {
  std::vector<Tally> tallies(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([db, t, &tallies] {
      MixedWrites(db, (t + 1) * 100000, 5000, &tallies[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  return Report("4 writers on one table", tallies);
}

// One session writes while three others run point selects on the rows it
// writes (a select may find a row deleted, never two rows).
int ReaderWriter(Database* db) {
  std::vector<Tally> tallies(4);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.emplace_back([db, &tallies, &done] {
    MixedWrites(db, 100000, 10000, &tallies[0]);
    done = true;
  });
  for (int t = 1; t < 4; ++t) {
    threads.emplace_back([db, t, &tallies, &done] {
      Session s(db);
      QueryResult r;
      std::mt19937_64 rng(static_cast<uint64_t>(t));
      while (!done) {
        ++tallies[t].runs;
        const int64_t id = 100000 + static_cast<int64_t>(rng() % 3500);
        Status st = s.Execute(
            "SELECT * FROM employee WHERE id = " + std::to_string(id), &r);
        if (!st.ok()) {
          tallies[t].Bad("select: " + st.ToString());
        } else if (r.rows.size() > 1) {
          tallies[t].Bad("select by unique id returned " +
                         std::to_string(r.rows.size()) + " rows");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return Report("1 writer and 3 readers on one table", tallies);
}

// Two sessions run the same `?` select with their own parameters.
int ParamRace(Database* db) {
  std::vector<Tally> tallies(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([db, t, &tallies] {
      Session s(db);
      QueryResult r;
      for (int64_t i = 0; i < 300; ++i) {
        ++tallies[t].runs;
        const int64_t id = t * 1000 + i;
        Status st = s.Execute("SELECT * FROM employee WHERE id = ?",
                              {Value::Int(id)}, &r);
        if (!st.ok()) {
          tallies[t].Bad("select: " + st.ToString());
        } else if (r.rows.size() != 1 || r.rows[0][0] != Value::Int(id)) {
          tallies[t].Bad("select with id = " + std::to_string(id) +
                         " returned another session's row");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return Report("concurrent `?` parameters", tallies);
}

int InsertParam(Database* db) {
  std::vector<Tally> tallies(1);
  Session s(db);
  QueryResult r;
  ++tallies[0].runs;
  Status st =
      s.Execute("INSERT INTO employee VALUES (?, 'name', 1000.0, 'd0')",
                {Value::Int(1)}, &r);
  if (!st.ok()) tallies[0].Bad("insert: " + st.ToString());
  return Report("`?` in INSERT VALUES", tallies);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    fprintf(stderr,
            "usage: dmx_e2e_repro shared_writers|reader_writer|param_race|"
            "insert_param [DIR]\n");
    return 2;
  }
  const std::string which = argv[1];
  const std::string dir =
      argc == 3 ? argv[2] : "build-e2e/repro/" + which;
  int64_t rows = 0;
  if (which == "shared_writers" || which == "reader_writer") rows = 1000;
  if (which == "param_race") rows = 2000;
  std::unique_ptr<Database> db;
  Status s = Setup(dir, rows, &db);
  if (!s.ok()) {
    fprintf(stderr, "dmx_e2e_repro: setup failed: %s\n",
            s.ToString().c_str());
    return 2;
  }
  if (which == "shared_writers") return SharedWriters(db.get());
  if (which == "reader_writer") return ReaderWriter(db.get());
  if (which == "param_race") return ParamRace(db.get());
  if (which == "insert_param") return InsertParam(db.get());
  fprintf(stderr, "dmx_e2e_repro: unknown case '%s'\n", which.c_str());
  return 2;
}
