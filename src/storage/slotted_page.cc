#include "src/storage/slotted_page.h"

#include <cstring>
#include <vector>

#include "src/util/coding.h"

namespace dmx {

void SlottedPage::Init() {
  memset(page_->data + 8, 0, kPageSize - 8);
  set_num_slots(0);
  set_data_start(static_cast<uint16_t>(kPageSize));
  set_next_page(kInvalidPageId);
}

uint16_t SlottedPage::num_slots() const {
  return DecodeFixed16(page_->data + kSlotCountOff);
}

void SlottedPage::set_num_slots(uint16_t v) {
  memcpy(page_->data + kSlotCountOff, &v, 2);
}

uint16_t SlottedPage::data_start() const {
  // kPageSize (8192) fits in u16, so the pointer is stored directly.
  return DecodeFixed16(page_->data + kDataStartOff);
}

void SlottedPage::set_data_start(uint16_t v) {
  memcpy(page_->data + kDataStartOff, &v, 2);
}

PageId SlottedPage::next_page() const {
  return DecodeFixed32(page_->data + kNextPageOff);
}

void SlottedPage::set_next_page(PageId id) {
  memcpy(page_->data + kNextPageOff, &id, 4);
}

uint16_t SlottedPage::slot_offset(uint16_t slot) const {
  return DecodeFixed16(page_->data + kSlotArrayOff + 4 * slot);
}

uint16_t SlottedPage::slot_length(uint16_t slot) const {
  return DecodeFixed16(page_->data + kSlotArrayOff + 4 * slot + 2);
}

void SlottedPage::set_slot(uint16_t slot, uint16_t offset, uint16_t length) {
  memcpy(page_->data + kSlotArrayOff + 4 * slot, &offset, 2);
  memcpy(page_->data + kSlotArrayOff + 4 * slot + 2, &length, 2);
}

size_t SlottedPage::FreeSpaceForInsert() const {
  const size_t slot_array_end = kSlotArrayOff + 4 * num_slots();
  const size_t ds = data_start();
  if (ds < slot_array_end + 4) return 0;
  return ds - slot_array_end - 4;  // reserve room for one new slot entry
}

size_t SlottedPage::FreeSpaceAfterCompaction() const {
  size_t used = kSlotArrayOff + 4 * (num_slots() + 1u);
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (slot_offset(i) != 0) used += slot_length(i);
  }
  return used < kPageSize ? kPageSize - used : 0;
}

uint16_t SlottedPage::FirstTombstone() const {
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (slot_offset(i) == 0) return i;
  }
  return num_slots();
}

size_t SlottedPage::ContiguousFree() const {
  const size_t slot_array_end = kSlotArrayOff + 4 * num_slots();
  return data_start() > slot_array_end ? data_start() - slot_array_end : 0;
}

bool SlottedPage::InsertReclaims(size_t size, size_t reserve) const {
  return FirstTombstone() < num_slots() ||
         ContiguousFree() < size + 4 + reserve;
}

Status SlottedPage::Insert(const Slice& data, uint16_t* slot,
                           size_t reserve, bool reclaim) {
  if (data.size() > kPageSize / 2) {
    return Status::InvalidArgument("record larger than half a page");
  }
  // Reuse a tombstoned slot, else append a new slot entry.
  const uint16_t target = reclaim ? FirstTombstone() : num_slots();
  const bool reuse = target < num_slots();
  const size_t need = data.size() + (reuse ? 0 : 4) + reserve;
  if (ContiguousFree() < need) {
    if (!reclaim) return Status::Busy("page full without reclaiming");
    Compact();
    if (ContiguousFree() < need) return Status::Busy("page full");
  }
  uint16_t new_start = static_cast<uint16_t>(data_start() - data.size());
  memcpy(page_->data + new_start, data.data(), data.size());
  set_data_start(new_start);
  if (!reuse) set_num_slots(static_cast<uint16_t>(num_slots() + 1));
  set_slot(target, new_start, static_cast<uint16_t>(data.size()));
  *slot = target;
  return Status::OK();
}

Status SlottedPage::InsertAt(uint16_t slot, const Slice& data) {
  if (slot < num_slots() && slot_offset(slot) != 0) {
    return Status::InvalidArgument("slot occupied");
  }
  const uint16_t new_slots = slot >= num_slots()
                                 ? static_cast<uint16_t>(slot + 1)
                                 : num_slots();
  const size_t grow = 4 * (new_slots - num_slots());
  size_t need = data.size() + grow;
  const size_t slot_array_end = kSlotArrayOff + 4 * num_slots();
  size_t avail =
      data_start() > slot_array_end ? data_start() - slot_array_end : 0;
  if (avail < need) {
    Compact();
    avail = data_start() > slot_array_end ? data_start() - slot_array_end : 0;
    if (avail < need) return Status::Busy("page full");
  }
  // Extend the slot array; new intermediate slots become tombstones.
  for (uint16_t i = num_slots(); i < new_slots; ++i) set_slot(i, 0, 0);
  set_num_slots(new_slots);
  uint16_t new_start = static_cast<uint16_t>(data_start() - data.size());
  memcpy(page_->data + new_start, data.data(), data.size());
  set_data_start(new_start);
  set_slot(slot, new_start, static_cast<uint16_t>(data.size()));
  return Status::OK();
}

Status SlottedPage::Delete(uint16_t slot) {
  if (slot >= num_slots() || slot_offset(slot) == 0) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  set_slot(slot, 0, 0);
  return Status::OK();
}

Status SlottedPage::Update(uint16_t slot, const Slice& data) {
  if (slot >= num_slots() || slot_offset(slot) == 0) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  uint16_t off = slot_offset(slot);
  uint16_t len = slot_length(slot);
  if (data.size() <= len) {
    // In place; shrinking leaves a hole reclaimed by later compaction.
    memcpy(page_->data + off, data.data(), data.size());
    set_slot(slot, off, static_cast<uint16_t>(data.size()));
    return Status::OK();
  }
  // Tombstone, compact, re-insert into the same slot.
  set_slot(slot, 0, 0);
  Compact();
  const size_t slot_array_end = kSlotArrayOff + 4 * num_slots();
  size_t avail =
      data_start() > slot_array_end ? data_start() - slot_array_end : 0;
  if (avail < data.size()) {
    // Restore impossible (old bytes were compacted away); caller must treat
    // Busy as "record must move" and will have logged the old image.
    return Status::Busy("updated record does not fit");
  }
  uint16_t new_start = static_cast<uint16_t>(data_start() - data.size());
  memcpy(page_->data + new_start, data.data(), data.size());
  set_data_start(new_start);
  set_slot(slot, new_start, static_cast<uint16_t>(data.size()));
  return Status::OK();
}

Status SlottedPage::Get(uint16_t slot, Slice* out) const {
  if (slot >= num_slots() || slot_offset(slot) == 0) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  *out = Slice(page_->data + slot_offset(slot), slot_length(slot));
  return Status::OK();
}

bool SlottedPage::IsLive(uint16_t slot) const {
  return slot < num_slots() && slot_offset(slot) != 0;
}

void SlottedPage::Compact() {
  struct Live {
    uint16_t slot;
    uint16_t len;
    std::string data;
  };
  std::vector<Live> live;
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (slot_offset(i) != 0) {
      live.push_back({i, slot_length(i),
                      std::string(page_->data + slot_offset(i),
                                  slot_length(i))});
    }
  }
  uint16_t ds = static_cast<uint16_t>(kPageSize);
  for (const Live& l : live) {
    ds = static_cast<uint16_t>(ds - l.len);
    memcpy(page_->data + ds, l.data.data(), l.len);
    set_slot(l.slot, ds, l.len);
  }
  set_data_start(ds);
}

}  // namespace dmx
