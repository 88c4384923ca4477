// SlottedPage: classic slot-array record page used by the heap storage
// method and the catalog.
//
// Layout within an 8 KiB page:
//   [0..8)    page LSN (see PageLsn)
//   [8..10)   slot count (u16)
//   [10..12)  data start pointer (u16, grows down from kPageSize)
//   [12..16)  next page id (u32, heap chain)
//   [16..)    slot array, 4 bytes per slot: u16 offset | u16 length
//   ...free...
//   [data start..kPageSize) record payloads
//
// A slot with offset 0 is a tombstone; slot numbers are stable so a RID
// (page, slot) remains a valid record key for the life of the record.

#ifndef DMX_STORAGE_SLOTTED_PAGE_H_
#define DMX_STORAGE_SLOTTED_PAGE_H_

#include "src/storage/page_file.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {

/// Thin operator view over a Page image; does not own the page.
class SlottedPage {
 public:
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Format an empty slotted page.
  void Init();

  uint16_t num_slots() const;
  PageId next_page() const;
  void set_next_page(PageId id);

  /// Bytes available for one more insert (accounts for the slot entry).
  size_t FreeSpaceForInsert() const;

  /// The same once compaction has closed the holes between payloads.
  size_t FreeSpaceAfterCompaction() const;

  /// Insert `data`, returning the slot number. Fails with Busy if the page
  /// cannot hold the payload even after compaction. `reserve` bytes are
  /// kept free beyond the payload (callers reserve slack for future
  /// in-place growth and undo restores). Without `reclaim` the insert only
  /// appends: it neither reuses a tombstoned slot nor compacts, so the
  /// slots and space that deletes freed stay where their undo needs them.
  Status Insert(const Slice& data, uint16_t* slot, size_t reserve = 0,
                bool reclaim = true);

  /// True when Insert of `size` bytes with `reserve` would reuse a
  /// tombstoned slot or compact.
  bool InsertReclaims(size_t size, size_t reserve) const;

  /// Place `data` at a specific slot (recovery: undo of a delete must
  /// revive the exact RID). The slot must be a tombstone or lie at/past
  /// the end of the slot array (intermediate slots become tombstones).
  Status InsertAt(uint16_t slot, const Slice& data);

  /// Tombstone the slot. The slot number is not reused until the page is
  /// reformatted, keeping RIDs stable.
  Status Delete(uint16_t slot);

  /// Replace the payload of `slot`. Tries in place, then compaction;
  /// fails with Busy if the new payload cannot fit on this page.
  Status Update(uint16_t slot, const Slice& data);

  /// Read the payload of `slot`. The returned slice aliases the page image
  /// (zero-copy); it is valid while the page stays pinned. Returns NotFound
  /// for tombstones.
  Status Get(uint16_t slot, Slice* out) const;

  /// True if the slot exists and is live.
  bool IsLive(uint16_t slot) const;

 private:
  static constexpr size_t kSlotCountOff = 8;
  static constexpr size_t kDataStartOff = 10;
  static constexpr size_t kNextPageOff = 12;
  static constexpr size_t kSlotArrayOff = 16;

  uint16_t slot_offset(uint16_t slot) const;
  uint16_t slot_length(uint16_t slot) const;
  void set_slot(uint16_t slot, uint16_t offset, uint16_t length);
  uint16_t data_start() const;
  void set_data_start(uint16_t v);
  void set_num_slots(uint16_t v);
  /// The first tombstoned slot, or num_slots() when there is none.
  uint16_t FirstTombstone() const;
  /// Bytes between the slot array and the payloads.
  size_t ContiguousFree() const;

  /// Rewrite the data area to squeeze out holes.
  void Compact();

  Page* page_;
};

}  // namespace dmx

#endif  // DMX_STORAGE_SLOTTED_PAGE_H_
