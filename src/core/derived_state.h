// Runtime state of an attachment type that keeps its instances' tables in
// memory only and derives them from the base relation.
//
// The paper gives each attachment "wide latitude in the selection of
// recovery techniques". hash_index, join_index, unique, stats and
// rtree_index use it the same way: they log their changes only for
// transaction-time undo, leave AtOps::redo null, and build their tables
// from one scan of the base relation whenever the state opens. Restart
// recovery therefore never opens such a state (Database::ApplyLogRecord
// skips an attachment with no redo), and the first touch after restart
// builds it once from the recovered base.
//
// The holder is an InstanceState (the decoded instance list, which never
// changes while the state is open) with one table per instance behind one
// mutex. Writers of one relation run the hooks concurrently, so every
// table access goes through With, which holds the mutex around that access
// only. Keep LogExtensionUpdate (the log's mutex must not nest under it),
// and Database::OpenScanOn and Database::MakeAtContext (the first can wait
// in the lock manager behind a writer that waits for the mutex; the second
// can open a state, which scans) out of the functions passed to With.

#ifndef DMX_CORE_DERIVED_STATE_H_
#define DMX_CORE_DERIVED_STATE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/attachment_instances.h"
#include "src/core/extension.h"
#include "src/util/thread_annotations.h"

namespace dmx {

using ScanItemFn = std::function<Status(const ScanItem&)>;

/// Calls fn(item) for every record of ctx's relation, read straight from
/// its storage method: no relation lock, no access-path selection. It runs
/// inside AtOps::open, which the core calls before the first modification
/// that needs the state.
Status ScanBaseRelation(AtContext& ctx, const ScanItemFn& fn);

/// The same through Database::OpenScanOn in ctx.txn, which locks the
/// relation S: how verify and DDL read the records they check.
Status ScanRelation(AtContext& ctx, const ScanItemFn& fn);

/// `Inst` is an InstanceList entry type; `Table` is one instance's
/// in-memory table and must be default-constructible.
template <typename Inst, typename Table>
class DerivedState : public InstanceState<Inst, DerivedState<Inst, Table>> {
  using Base = InstanceState<Inst, DerivedState>;

 public:
  /// Adds one base record to one instance's table.
  using AddFn = Status (*)(const Inst& inst, const ScanItem& item,
                           Table* table);

  /// AtOps::open: decodes the descriptor field, then fills every
  /// instance's table through `Add` from one scan of the base relation
  /// (no scan when the field holds no instance).
  template <AddFn Add>
  static Status Open(AtContext& ctx, std::unique_ptr<ExtState>* state) {
    std::unique_ptr<ExtState> owned;
    DMX_RETURN_IF_ERROR(Base::Open(ctx, &owned));
    DerivedState* st = static_cast<DerivedState*>(owned.get());
    const InstanceList<Inst>& list = st->instances();
    std::vector<Table> tables(list.size());
    if (!tables.empty()) {
      DMX_RETURN_IF_ERROR(
          ScanBaseRelation(ctx, [&list, &tables](const ScanItem& item) {
            for (size_t i = 0; i < tables.size(); ++i) {
              DMX_RETURN_IF_ERROR(Add(list[i], item, &tables[i]));
            }
            return Status::OK();
          }));
    }
    {
      MutexLock lock(&st->mu_);
      st->tables_ = std::move(tables);
    }
    *state = std::move(owned);
    return Status::OK();
  }

  /// Calls fn(table) with `mu_` held and returns what it returns; `table`
  /// is instance `no`'s, or null when the descriptor has no such instance.
  template <typename Fn>
  decltype(auto) With(uint32_t no, Fn&& fn) {
    MutexLock lock(&mu_);
    Table* table = nullptr;
    const InstanceList<Inst>& list = this->instances();
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].no == no) table = &tables_[i];
    }
    return fn(table);
  }

 private:
  Mutex mu_;
  std::vector<Table> tables_ GUARDED_BY(mu_);  // parallel to instances()
};

}  // namespace dmx

#endif  // DMX_CORE_DERIVED_STATE_H_
