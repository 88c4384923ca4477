#include "src/sm/heap.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/sm/rid.h"
#include "src/storage/slotted_page.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

// Slack kept free on fresh inserts so in-place update growth and undo
// restores rarely fail (see DESIGN.md, heap recovery notes).
constexpr size_t kUpdateReserve = 256;
// Free space a delete must leave on a page before inserts go back to it:
// enough for a few records beyond the reserve, so one compaction serves
// several inserts.
constexpr size_t kReclaimBytes = kPageSize / 4;

struct HeapState : public ExtState {
  PageId first = kInvalidPageId;
  PageId last = kInvalidPageId;
  /// Atomic because costing reads them before any relation lock is taken
  /// (planning precedes the scan), while a writer may be updating them.
  std::atomic<uint64_t> pages{0};
  std::atomic<uint64_t> records{0};
  /// Pages deletes left at least kReclaimBytes free. An insert that does
  /// not fit the tail goes to `refill`, the page the last such insert
  /// went to, or else takes one of these, before the chain grows. No
  /// insert, on these or on the tail, reuses a tombstoned slot or compacts
  /// a page another active transaction may have changed (its LSN is not
  /// below TransactionManager::OldestActiveLsn): that transaction's undo
  /// needs back the space and slots it freed. The inserter's own changes
  /// are safe, since its undo runs in reverse order. A page that does not
  /// fit returns with a later delete.
  std::unordered_set<PageId> reclaimable;
  PageId refill = kInvalidPageId;
  /// The last insert found no room on the tail page and nothing has freed
  /// any there since, so inserts go straight to `reclaimable`.
  bool tail_full = false;
  /// Serializes page mutation and the chain-tail/counter fields across
  /// concurrent writer transactions. Record X locks don't help here: two
  /// inserters lock different records yet mutate the same tail page, and
  /// a writer fetching its own record reads a page another writer is
  /// changing, so fetches take it too. Scans need no lock — their
  /// relation S lock conflicts with the writers' IX, so they never race a
  /// writer. GUARDED_BY would therefore be wrong: it would force scans to
  /// take a lock they are correct not to need.
  Mutex mu;  // deeplint: allow(mutex-discipline, reader exclusion via S lock)
};

HeapState* StateOf(SmContext& ctx) {
  return static_cast<HeapState*>(ctx.state);
}

PageId FirstPageOf(const Slice& sm_desc) {
  if (sm_desc.size() < 4) return kInvalidPageId;
  return DecodeFixed32(sm_desc.data());
}

Status HeapValidate(const Schema& schema, const AttrList& attrs,
                    std::string* sm_desc) {
  (void)schema;
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({}));
  sm_desc->clear();
  return Status::OK();
}

Status HeapCreate(SmContext& ctx, std::string* sm_desc) {
  PageId first;
  PageHandle h;
  DMX_RETURN_IF_ERROR(ctx.db->buffer_pool()->New(&first, &h));
  SlottedPage sp(h.page());
  sp.Init();
  h.MarkDirty();
  sm_desc->clear();
  PutFixed32(sm_desc, first);
  return Status::OK();
}

Status HeapDrop(SmContext& ctx) {
  PageId page = FirstPageOf(Slice(ctx.desc->sm_desc));
  BufferPool* bp = ctx.db->buffer_pool();
  while (page != kInvalidPageId) {
    PageId next;
    {
      PageHandle h;
      DMX_RETURN_IF_ERROR(bp->Fetch(page, &h));
      next = SlottedPage(h.page()).next_page();
    }
    DMX_RETURN_IF_ERROR(bp->FreePage(page));
    page = next;
  }
  return Status::OK();
}

Status HeapOpen(SmContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<HeapState>();
  st->first = FirstPageOf(Slice(ctx.desc->sm_desc));
  if (st->first == kInvalidPageId) {
    return Status::Corruption("heap descriptor missing first page");
  }
  BufferPool* bp = ctx.db->buffer_pool();
  PageId page = st->first;
  while (page != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp->Fetch(page, &h));
    SlottedPage sp(h.page());
    for (uint16_t s = 0; s < sp.num_slots(); ++s) {
      if (sp.IsLive(s)) ++st->records;
    }
    ++st->pages;
    st->last = page;
    page = sp.next_page();
  }
  *state = std::move(st);
  return Status::OK();
}

// Callers hold HeapState::mu.
Status HeapInsertLocked(SmContext& ctx, const Slice& record,
                        std::string* record_key) {
  HeapState* st = StateOf(ctx);
  BufferPool* bp = ctx.db->buffer_pool();

  // Try the tail page, then pages deletes freed space on; if none fits,
  // chain on a fresh page.
  PageHandle h;
  DMX_RETURN_IF_ERROR(bp->Fetch(st->last, &h));
  SlottedPage sp(h.page());
  uint16_t slot;
  PageId target = st->last;
  PageId link_prev = kInvalidPageId;
  // Whether an insert may take back the slots and space deletes freed on
  // `page`: not when another active transaction may have changed it (its
  // LSN is not below that transaction's first), since that transaction's
  // undo needs them. Asked only when an insert would reuse or compact.
  Lsn final_below = kInvalidLsn;
  bool final_known = false;
  auto may_reclaim = [&](const Page& page) {
    if (!final_known) {
      final_below = ctx.db->txn_manager()->OldestActiveLsn(
          ctx.txn != nullptr ? ctx.txn->id() : kInvalidTxnId);
      final_known = true;
    }
    return final_below == kInvalidLsn || PageLsn(page) < final_below;
  };
  Status s = Status::Busy("tail page full");
  if (!st->tail_full) {
    const bool reclaim = !sp.InsertReclaims(record.size(), kUpdateReserve) ||
                         may_reclaim(*h.page());
    s = sp.Insert(record, &slot, kUpdateReserve, reclaim);
  }
  st->tail_full = s.IsBusy();
  while (s.IsBusy() &&
         (st->refill != kInvalidPageId || !st->reclaimable.empty())) {
    PageId page = std::exchange(st->refill, kInvalidPageId);
    if (page == kInvalidPageId) {
      page = *st->reclaimable.begin();
      st->reclaimable.erase(st->reclaimable.begin());
    }
    PageHandle rh;
    DMX_RETURN_IF_ERROR(bp->Fetch(page, &rh));
    SlottedPage rsp(rh.page());
    if (!may_reclaim(*rh.page()) ||
        rsp.FreeSpaceAfterCompaction() < record.size() + kUpdateReserve) {
      continue;
    }
    s = rsp.Insert(record, &slot, kUpdateReserve);
    if (s.ok()) {
      st->refill = page;
      target = page;
      h = std::move(rh);
    }
  }
  if (s.IsBusy()) {
    PageId fresh;
    PageHandle nh;
    DMX_RETURN_IF_ERROR(bp->New(&fresh, &nh));
    SlottedPage nsp(nh.page());
    nsp.Init();
    DMX_RETURN_IF_ERROR(nsp.Insert(record, &slot, kUpdateReserve));
    // Link: old tail -> fresh.
    sp.set_next_page(fresh);
    h.MarkDirty();
    link_prev = st->last;
    st->last = fresh;
    st->tail_full = false;
    ++st->pages;
    target = fresh;
    h = std::move(nh);
  } else if (!s.ok()) {
    return s;
  }

  Rid rid{target, slot};
  std::string payload = "I" + rid.Encode();
  PutFixed32(&payload, link_prev);
  payload.append(record.data(), record.size());
  Lsn lsn;
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload), &lsn));
  SetPageLsn(h.page(), lsn);
  h.MarkDirty();
  ++st->records;
  *record_key = rid.Encode();
  return Status::OK();
}

// Callers hold HeapState::mu.
Status HeapEraseLocked(SmContext& ctx, const Slice& record_key,
                       const Slice& old_record) {
  HeapState* st = StateOf(ctx);
  Rid rid;
  DMX_RETURN_IF_ERROR(Rid::Decode(record_key, &rid));
  PageHandle h;
  DMX_RETURN_IF_ERROR(ctx.db->buffer_pool()->Fetch(rid.page, &h));
  SlottedPage sp(h.page());
  DMX_RETURN_IF_ERROR(sp.Delete(rid.slot));
  if (rid.page == st->last) {
    st->tail_full = false;
  } else if (sp.FreeSpaceAfterCompaction() >= kReclaimBytes) {
    st->reclaimable.insert(rid.page);
  }
  std::string payload = "D" + rid.Encode();
  payload.append(old_record.data(), old_record.size());
  Lsn lsn;
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload), &lsn));
  SetPageLsn(h.page(), lsn);
  h.MarkDirty();
  --st->records;
  return Status::OK();
}

Status HeapInsert(SmContext& ctx, const Slice& record,
                  std::string* record_key) {
  MutexLock lock(&StateOf(ctx)->mu);
  return HeapInsertLocked(ctx, record, record_key);
}

Status HeapErase(SmContext& ctx, const Slice& record_key,
                 const Slice& old_record) {
  MutexLock lock(&StateOf(ctx)->mu);
  return HeapEraseLocked(ctx, record_key, old_record);
}

Status HeapUpdate(SmContext& ctx, const Slice& record_key,
                  const Slice& old_record, const Slice& new_record,
                  std::string* new_key) {
  MutexLock lock(&StateOf(ctx)->mu);
  Rid rid;
  DMX_RETURN_IF_ERROR(Rid::Decode(record_key, &rid));
  {
    PageHandle h;
    DMX_RETURN_IF_ERROR(ctx.db->buffer_pool()->Fetch(rid.page, &h));
    SlottedPage sp(h.page());
    Status s = sp.Update(rid.slot, new_record);
    if (s.ok()) {
      std::string payload = "U" + rid.Encode();
      PutLengthPrefixedSlice(&payload, old_record);
      PutLengthPrefixedSlice(&payload, new_record);
      Lsn lsn;
      DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload), &lsn));
      SetPageLsn(h.page(), lsn);
      h.MarkDirty();
      *new_key = record_key.ToString();
      return Status::OK();
    }
    if (!s.IsBusy()) return s;
    // Doesn't fit: Update() tombstoned the slot; revive it before moving.
    sp.InsertAt(rid.slot, old_record).ok();
  }
  // Move: delete + insert (the record key changes).
  DMX_RETURN_IF_ERROR(HeapEraseLocked(ctx, record_key, old_record));
  return HeapInsertLocked(ctx, new_record, new_key);
}

Status HeapFetch(SmContext& ctx, const Slice& record_key,
                 std::string* record) {
  Rid rid;
  DMX_RETURN_IF_ERROR(Rid::Decode(record_key, &rid));
  MutexLock lock(&StateOf(ctx)->mu);
  PageHandle h;
  DMX_RETURN_IF_ERROR(ctx.db->buffer_pool()->Fetch(rid.page, &h));
  SlottedPage sp(h.page());
  Slice data;
  DMX_RETURN_IF_ERROR(sp.Get(rid.slot, &data));
  record->assign(data.data(), data.size());
  return Status::OK();
}

// -- scan ---------------------------------------------------------------------

// A partition descriptor is a page-chain segment: (start_page, stop_page)
// as two Fixed32s, stop exclusive, kInvalidPageId = run to the chain end.
// Segments rather than page-id ranges because chain order is not page-id
// order once FreePage has recycled pages.
void EncodeHeapPartition(PageId start, PageId stop, std::string* out) {
  out->clear();
  PutFixed32(out, start);
  PutFixed32(out, stop);
}

bool DecodeHeapPartition(const Slice& in, PageId* start, PageId* stop) {
  if (in.size() != 8) return false;
  *start = DecodeFixed32(in.data());
  *stop = DecodeFixed32(in.data() + 4);
  return true;
}

class HeapScan : public Scan {
 public:
  HeapScan(Database* db, const RelationDescriptor* desc, PageId first,
           const ScanSpec& spec)
      : db_(db), desc_(desc), spec_(spec) {
    next_ = Rid{first, 0};
    if (spec_.partition.has_value()) {
      PageId start, stop;
      if (DecodeHeapPartition(Slice(*spec_.partition), &start, &stop)) {
        next_ = Rid{start, 0};
        stop_page_ = stop;
      }
    }
    if (spec_.low_key.has_value()) {
      Rid low;
      if (Rid::Decode(Slice(*spec_.low_key), &low).ok()) {
        next_ = low;
        if (!spec_.low_inclusive) ++next_.slot;
      }
    }
  }

  Status Next(ScanItem* out) override {
    while (true) {
      if (next_.page == kInvalidPageId || next_.page == stop_page_) {
        return Status::NotFound("end of scan");
      }
      if (!pinned_.valid() || pinned_.page_id() != next_.page) {
        pinned_.Release();
        DMX_RETURN_IF_ERROR(db_->buffer_pool()->Fetch(next_.page, &pinned_));
      }
      SlottedPage sp(pinned_.page());
      if (next_.slot >= sp.num_slots()) {
        next_ = Rid{sp.next_page(), 0};
        continue;
      }
      Rid current = next_;
      ++next_.slot;
      Slice data;
      if (!sp.Get(current.slot, &data).ok()) continue;  // tombstone
      if (spec_.high_key.has_value()) {
        std::string enc = current.Encode();
        int cmp = Slice(enc).compare(Slice(*spec_.high_key));
        if (cmp > 0 || (cmp == 0 && !spec_.high_inclusive)) {
          return Status::NotFound("end of scan");
        }
      }
      // Evaluate the filter against the record while it is still in the
      // buffer pool (common predicate-evaluation service; zero copy).
      RecordView view(data, &desc_->schema);
      if (spec_.filter != nullptr) {
        bool passes = false;
        DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
            *spec_.filter, view, &passes, spec_.params));
        if (!passes) continue;
      }
      out->record_key = current.Encode();
      out->view = view;
      last_returned_ = current;
      return Status::OK();
    }
  }

  Status SavePosition(std::string* out) const override {
    // Position = next candidate; deletions at the current item naturally
    // leave the scan "just after" it.
    *out = next_.Encode();
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    return Rid::Decode(pos, &next_);
  }

 private:
  Database* db_;
  const RelationDescriptor* desc_;
  ScanSpec spec_;
  Rid next_;
  Rid last_returned_;
  /// Exclusive chain-segment bound (kInvalidPageId = scan to the end).
  PageId stop_page_ = kInvalidPageId;
  PageHandle pinned_;
};

Status HeapOpenScan(SmContext& ctx, const ScanSpec& spec,
                    std::unique_ptr<Scan>* scan) {
  HeapState* st = StateOf(ctx);
  *scan = std::make_unique<HeapScan>(ctx.db, ctx.desc, st->first, spec);
  return Status::OK();
}

// Split the page chain into up to `target` contiguous segments. Declines
// (single-element result) on bounded scans: low/high keys are Rid
// positions, and honouring them per-segment would need the chain prefix
// order that partitions are meant to avoid recomputing.
Status HeapPartitionScan(SmContext& ctx, const ScanSpec& spec, int target,
                         std::vector<ScanSpec>* partitions) {
  partitions->clear();
  HeapState* st = StateOf(ctx);
  if (target < 2 || spec.low_key.has_value() || spec.high_key.has_value() ||
      st->pages < 2 || st->first == kInvalidPageId) {
    partitions->push_back(spec);
    return Status::OK();
  }
  // Walk the chain once to learn its order (not page-id order after frees).
  std::vector<PageId> chain;
  chain.reserve(st->pages);
  BufferPool* bp = ctx.db->buffer_pool();
  PageId page = st->first;
  while (page != kInvalidPageId) {
    chain.push_back(page);
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp->Fetch(page, &h));
    page = SlottedPage(h.page()).next_page();
  }
  size_t parts = std::min<size_t>(target, chain.size());
  for (size_t i = 0; i < parts; ++i) {
    size_t begin = chain.size() * i / parts;
    size_t end = chain.size() * (i + 1) / parts;
    ScanSpec sub = spec;
    sub.partition.emplace();
    EncodeHeapPartition(chain[begin],
                        end < chain.size() ? chain[end] : kInvalidPageId,
                        &*sub.partition);
    partitions->push_back(std::move(sub));
  }
  return Status::OK();
}

Status HeapCost(SmContext& ctx, const std::vector<ExprPtr>& predicates,
                AccessCost* out) {
  HeapState* st = StateOf(ctx);
  out->usable = true;
  out->io_cost = static_cast<double>(st->pages);
  out->cpu_cost = static_cast<double>(st->records);
  out->selectivity = EstimateSelectivity(predicates);
  // A full scan evaluates every eligible predicate itself (pushed filter).
  out->handled_predicates.clear();
  for (size_t i = 0; i < predicates.size(); ++i) {
    out->handled_predicates.push_back(static_cast<int>(i));
  }
  return Status::OK();
}

Status HeapCount(SmContext& ctx, uint64_t* records) {
  *records = StateOf(ctx)->records;
  return Status::OK();
}

// -- recovery ------------------------------------------------------------------

// Parse a heap log payload.
struct HeapLogOp {
  char op;
  Rid rid;
  PageId link_prev = kInvalidPageId;
  Slice record;        // I: record, D: old record
  Slice old_rec, new_rec;  // U
};

Status ParseHeapPayload(const Slice& payload, HeapLogOp* out) {
  Slice in = payload;
  if (in.size() < 7) return Status::Corruption("heap log payload");
  out->op = in[0];
  in.remove_prefix(1);
  DMX_RETURN_IF_ERROR(Rid::Decode(Slice(in.data(), 6), &out->rid));
  in.remove_prefix(6);
  switch (out->op) {
    case 'I': {
      uint32_t prev;
      if (!GetFixed32(&in, &prev)) return Status::Corruption("heap I link");
      out->link_prev = prev;
      out->record = in;
      return Status::OK();
    }
    case 'D':
      out->record = in;
      return Status::OK();
    case 'U':
      if (!GetLengthPrefixedSlice(&in, &out->old_rec) ||
          !GetLengthPrefixedSlice(&in, &out->new_rec)) {
        return Status::Corruption("heap U payload");
      }
      return Status::OK();
    default:
      return Status::Corruption("heap log op");
  }
}

// Apply one parsed op (or its inverse) to the page, stamping apply_lsn.
Status ApplyHeapOp(SmContext& ctx, const HeapLogOp& op, bool undo,
                   Lsn apply_lsn, bool gate_on_page_lsn) {
  HeapState* st = StateOf(ctx);
  BufferPool* bp = ctx.db->buffer_pool();

  // Redo of an insert that chained a fresh page must restore the link.
  if (!undo && op.op == 'I' && op.link_prev != kInvalidPageId) {
    PageHandle ph;
    DMX_RETURN_IF_ERROR(bp->Fetch(op.link_prev, &ph));
    SlottedPage prev(ph.page());
    if (prev.next_page() == kInvalidPageId) {
      prev.set_next_page(op.rid.page);
      ph.MarkDirty();
      if (st->last == op.link_prev) {
        st->last = op.rid.page;
        ++st->pages;
      }
    }
  }

  PageHandle h;
  DMX_RETURN_IF_ERROR(bp->Fetch(op.rid.page, &h));
  if (gate_on_page_lsn && PageLsn(*h.page()) >= apply_lsn) {
    return Status::OK();  // effect already on the page
  }
  SlottedPage sp(h.page());
  if (sp.num_slots() == 0 && sp.next_page() == kInvalidPageId &&
      PageLsn(*h.page()) == kInvalidLsn) {
    sp.Init();  // fresh page whose format was lost in the crash
  }
  Status s;
  char effective = op.op;
  if (undo && op.op == 'I') effective = 'd';   // undo insert = delete
  if (undo && op.op == 'D') effective = 'i';   // undo delete = revive
  if (undo && op.op == 'U') effective = 'u';   // undo update = restore old
  switch (effective) {
    case 'I':
    case 'i':
      s = sp.InsertAt(op.rid.slot, op.record);
      if (s.ok()) ++st->records;
      break;
    case 'D':
    case 'd':
      s = sp.Delete(op.rid.slot);
      if (s.ok()) --st->records;
      break;
    case 'U':
      s = sp.Update(op.rid.slot, op.new_rec);
      break;
    case 'u':
      s = sp.Update(op.rid.slot, op.old_rec);
      break;
    default:
      s = Status::Corruption("heap apply op");
  }
  // Idempotence slack for redo: "already deleted" / "already present" are
  // fine when gating could not apply (e.g. slot states already match).
  if (!s.ok() && gate_on_page_lsn &&
      (s.IsNotFound() || s.IsInvalidArgument())) {
    s = Status::OK();
  }
  DMX_RETURN_IF_ERROR(s);
  if (op.rid.page == st->last) st->tail_full = false;
  // Never lower the page LSN. A rollback logs its CLR before it takes
  // `mu`, so another writer may have stamped a newer LSN meanwhile, and
  // inserts read the page LSN as covering every change on the page.
  SetPageLsn(h.page(), std::max(PageLsn(*h.page()), apply_lsn));
  h.MarkDirty();
  return Status::OK();
}

Status HeapUndo(SmContext& ctx, const LogRecord& rec, Lsn apply_lsn) {
  // Transaction-time undo (abort, veto, savepoint rollback) can run while
  // other writer transactions mutate the same pages; restart recovery is
  // single-threaded and merely pays an uncontended lock.
  MutexLock lock(&StateOf(ctx)->mu);
  HeapLogOp op;
  DMX_RETURN_IF_ERROR(ParseHeapPayload(Slice(rec.payload), &op));
  // Gate on the page LSN only when *redoing a CLR* (restart replaying an
  // interrupted rollback): the page may already carry the compensation.
  // During rollback of the original update (rec is kUpdate) the undo must
  // apply unconditionally — concurrent transactions modifying *other*
  // records on the same page stamp newer page LSNs, and gating would then
  // silently skip the undo (lost-undo; caught by the bank-transfer
  // invariant test under sanitizer timing). The record itself is protected
  // by this transaction's X lock, so unconditional apply is safe.
  return ApplyHeapOp(ctx, op, /*undo=*/true, apply_lsn,
                     /*gate_on_page_lsn=*/rec.type == LogRecType::kClr);
}

Status HeapRedo(SmContext& ctx, const LogRecord& rec, Lsn apply_lsn) {
  MutexLock lock(&StateOf(ctx)->mu);
  HeapLogOp op;
  DMX_RETURN_IF_ERROR(ParseHeapPayload(Slice(rec.payload), &op));
  return ApplyHeapOp(ctx, op, /*undo=*/false, apply_lsn,
                     /*gate_on_page_lsn=*/true);
}

// -- consistency sweep ---------------------------------------------------------

// Walk the page chain validating slot directories, record encodings, and
// the chain itself; recount and compare against the open-state counters.
// Unreadable (CRC-failing) pages become findings, not errors.
Status HeapVerify(SmContext& ctx, VerifyReport* report) {
  MutexLock lock(&StateOf(ctx)->mu);
  HeapState* st = StateOf(ctx);
  BufferPool* bp = ctx.db->buffer_pool();
  PageId page = FirstPageOf(Slice(ctx.desc->sm_desc));
  if (page == kInvalidPageId) {
    report->Problem("heap descriptor missing first page");
    return Status::OK();
  }
  std::set<PageId> visited;
  uint64_t live = 0, pages = 0;
  PageId last = kInvalidPageId;
  while (page != kInvalidPageId) {
    if (!visited.insert(page).second) {
      report->Problem("heap page chain cycles back to page " +
                      std::to_string(page));
      break;
    }
    PageHandle h;
    Status fs = bp->Fetch(page, &h);
    if (!fs.ok()) {
      report->Problem("heap page " + std::to_string(page) +
                      " unreadable: " + fs.ToString());
      break;  // the chain link lives on the unreadable page
    }
    SlottedPage sp(h.page());
    for (uint16_t s = 0; s < sp.num_slots(); ++s) {
      if (!sp.IsLive(s)) continue;
      Slice data;
      Status gs = sp.Get(s, &data);
      if (!gs.ok()) {
        report->Problem("heap page " + std::to_string(page) + " slot " +
                        std::to_string(s) + ": " + gs.ToString());
        continue;
      }
      RecordView view(data, &ctx.desc->schema);
      Status vs = view.Validate();
      if (!vs.ok()) {
        report->Problem("heap page " + std::to_string(page) + " slot " +
                        std::to_string(s) +
                        ": record fails to decode: " + vs.ToString());
        continue;
      }
      ++live;
    }
    ++pages;
    last = page;
    page = sp.next_page();
  }
  report->items += live;
  if (report->clean()) {
    if (live != st->records) {
      report->Problem("heap record count mismatch: chain holds " +
                      std::to_string(live) + ", state says " +
                      std::to_string(st->records));
    }
    if (pages != st->pages) {
      report->Problem("heap page count mismatch: chain holds " +
                      std::to_string(pages) + ", state says " +
                      std::to_string(st->pages));
    }
    if (last != st->last) {
      report->Problem("heap chain tail is page " + std::to_string(last) +
                      ", state says " + std::to_string(st->last));
    }
  }
  return Status::OK();
}

}  // namespace

const SmOps& HeapStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "heap";
    o.validate = HeapValidate;
    o.create = HeapCreate;
    o.drop = HeapDrop;
    o.open = HeapOpen;
    o.insert = HeapInsert;
    o.update = HeapUpdate;
    o.erase = HeapErase;
    o.fetch = HeapFetch;
    o.open_scan = HeapOpenScan;
    o.partition_scan = HeapPartitionScan;
    o.cost = HeapCost;
    o.undo = HeapUndo;
    o.redo = HeapRedo;
    o.count = HeapCount;
    o.verify = HeapVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
