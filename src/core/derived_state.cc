#include "src/core/derived_state.h"

#include "src/core/database.h"

namespace dmx {
namespace {

Status Drain(Scan* scan, const ScanItemFn& fn) {
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) return Status::OK();
    DMX_RETURN_IF_ERROR(s);
    DMX_RETURN_IF_ERROR(fn(item));
  }
}

}  // namespace

Status ScanBaseRelation(AtContext& ctx, const ScanItemFn& fn) {
  const SmOps& sm = ctx.db->registry()->sm_ops(ctx.desc->sm_id);
  SmContext sctx;
  DMX_RETURN_IF_ERROR(ctx.db->MakeSmContext(nullptr, ctx.desc, &sctx));
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(sm.open_scan(sctx, ScanSpec{}, &scan));
  return Drain(scan.get(), fn);
}

Status ScanRelation(AtContext& ctx, const ScanItemFn& fn) {
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  return Drain(scan.get(), fn);
}

}  // namespace dmx
