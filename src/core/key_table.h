// The in-memory table of the attachment types that file each record under
// the key of some of its fields (hash_index, join_index), and the entry
// points those types share.
//
// Each instance keeps a KeyTable in a DerivedState, built from the base
// relation when the state opens. The hooks keep it current and log each
// change with LogKeyEntry, for transaction-time undo only: the types leave
// AtOps::redo null. An instance the core has quarantined is not maintained;
// REPAIR rebuilds it from the base.
//
// `Inst` is an InstanceList entry type with a `std::vector<int> fields`.

#ifndef DMX_CORE_KEY_TABLE_H_
#define DMX_CORE_KEY_TABLE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/derived_state.h"
#include "src/core/extension_log.h"
#include "src/sm/key_codec.h"

namespace dmx {

/// One instance's entries: key -> the record keys stored under it. Each
/// bucket is itself keyed by record key, so a remove finds its entry in O(1)
/// however many records share the key.
struct KeyTable {
  std::unordered_map<std::string, std::unordered_set<std::string>> buckets;
  size_t entries = 0;

  void Add(const std::string& key, const std::string& record_key);
  void Remove(const std::string& key, const std::string& record_key);
  bool Contains(const std::string& key, const std::string& record_key) const;
  /// Appends the record keys filed under `key` to *out.
  void Collect(const std::string& key, std::vector<std::string>* out) const;
};

template <typename Inst>
using KeyTableState = DerivedState<Inst, KeyTable>;

/// DerivedState::Open's AddFn: files `item` under the key of inst.fields.
template <typename Inst>
Status AddFieldKey(const Inst& inst, const ScanItem& item, KeyTable* table) {
  std::string key;
  DMX_RETURN_IF_ERROR(EncodeFieldKey(item.view, inst.fields, &key));
  table->Add(key, item.record_key);
  return Status::OK();
}

/// AtOps::on_insert.
template <typename Inst>
Status KeyTableOnInsert(AtContext& ctx, const Slice& record_key,
                        const Slice& new_record) {
  auto* st = KeyTableState<Inst>::Of(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const Inst& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    st->With(inst.no, [&](KeyTable* table) {
      table->Add(key, record_key.ToString());
    });
    DMX_RETURN_IF_ERROR(
        LogKeyEntry(ctx, {'I', inst.no, Slice(key), record_key}));
  }
  return Status::OK();
}

/// AtOps::on_update.
template <typename Inst>
Status KeyTableOnUpdate(AtContext& ctx, const Slice& old_key,
                        const Slice& new_key, const Slice& old_record,
                        const Slice& new_record) {
  auto* st = KeyTableState<Inst>::Of(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const Inst& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string okey, nkey;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(old_view, inst.fields, &okey));
    DMX_RETURN_IF_ERROR(EncodeFieldKey(new_view, inst.fields, &nkey));
    if (okey == nkey && old_key == new_key) continue;
    st->With(inst.no, [&](KeyTable* table) {
      table->Remove(okey, old_key.ToString());
      table->Add(nkey, new_key.ToString());
    });
    DMX_RETURN_IF_ERROR(
        LogKeyEntry(ctx, {'D', inst.no, Slice(okey), old_key}));
    DMX_RETURN_IF_ERROR(
        LogKeyEntry(ctx, {'I', inst.no, Slice(nkey), new_key}));
  }
  return Status::OK();
}

/// AtOps::on_delete.
template <typename Inst>
Status KeyTableOnDelete(AtContext& ctx, const Slice& record_key,
                        const Slice& old_record) {
  auto* st = KeyTableState<Inst>::Of(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const Inst& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    st->With(inst.no, [&](KeyTable* table) {
      table->Remove(key, record_key.ToString());
    });
    DMX_RETURN_IF_ERROR(
        LogKeyEntry(ctx, {'D', inst.no, Slice(key), record_key}));
  }
  return Status::OK();
}

/// AtOps::undo: reverses one LogKeyEntry record in ctx's own state.
template <typename Inst>
Status KeyTableUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  KeyEntry entry;
  DMX_RETURN_IF_ERROR(DecodeKeyEntry(rec.payload, &entry));
  KeyTableState<Inst>::Of(ctx)->With(
      entry.instance, [&entry](KeyTable* table) {
        if (table == nullptr) return;  // instance dropped since
        if (entry.op == 'I') {
          table->Remove(entry.key.ToString(), entry.record_key.ToString());
        } else {
          table->Add(entry.key.ToString(), entry.record_key.ToString());
        }
      });
  return Status::OK();
}

/// Cross-checks instance `no`'s table against a fresh enumeration of the
/// base relation: every base record's key must map to its record key, and
/// the table must hold nothing else. Each base record is one probe of its
/// bucket, so the check stays linear however many records share a key.
/// `type` names the attachment type in the problems reported.
template <typename Inst>
Status KeyTableVerify(AtContext& ctx, uint32_t no, const char* type,
                      VerifyReport* report) {
  auto* st = KeyTableState<Inst>::Of(ctx);
  const Inst* inst = st->instances().Find(no);
  if (inst == nullptr) return InstanceList<Inst>::NotFound(no);
  const std::string tag = std::string(type) + "#" + std::to_string(no) + ": ";
  uint64_t base_records = 0;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    ++base_records;
    std::string key;
    Status ks = EncodeFieldKey(item.view, inst->fields, &key);
    if (!ks.ok()) {
      report->Problem(tag + "cannot compose key for a base record: " +
                      ks.ToString());
    } else if (!st->With(no, [&](KeyTable* table) {
                 return table->Contains(key, item.record_key);
               })) {
      report->Problem(tag + "base record has no matching entry");
    }
    return Status::OK();
  }));
  const size_t entries =
      st->With(no, [](KeyTable* table) { return table->entries; });
  report->items += entries;
  if (entries != base_records) {
    report->Problem(tag + "holds " + std::to_string(entries) +
                    " entries but the relation holds " +
                    std::to_string(base_records) + " records");
  }
  return Status::OK();
}

}  // namespace dmx

#endif  // DMX_CORE_KEY_TABLE_H_
