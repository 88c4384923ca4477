// Instance bookkeeping shared by attachment types that keep several
// instances in their descriptor field.
//
// The paper gives each attachment type one field of the relation descriptor
// and leaves its encoding to the type. Every built-in type frames that field
// the same way:
//
//   varint next_no | varint count | count x (varint no, payload)
//
// and an empty field means "no instances" (numbering restarts at 1). The
// framing, instance numbering, lookup and drop live here once; a type
// supplies only its instance struct with the encoding of its own payload.
// Third-party types may use this codec or encode their field any other way
// (the AtOps slots below are conveniences, not requirements).

#ifndef DMX_CORE_ATTACHMENT_INSTANCES_H_
#define DMX_CORE_ATTACHMENT_INSTANCES_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/extension.h"
#include "src/util/coding.h"

namespace dmx {

/// Appends `varint n, n x varint field` — the record-field list that most
/// instance payloads carry.
inline void PutFieldList(std::string* dst, const std::vector<int>& fields) {
  PutVarint32(dst, static_cast<uint32_t>(fields.size()));
  for (int f : fields) PutVarint32(dst, static_cast<uint32_t>(f));
}

/// Parses a PutFieldList encoding into *fields (replacing its contents).
/// A truncated count yields Corruption(count_error), a truncated field
/// Corruption(field_error), so each type keeps naming itself.
inline Status GetFieldList(Slice* in, std::vector<int>* fields,
                           const char* count_error, const char* field_error) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return Status::Corruption(count_error);
  fields->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t f;
    if (!GetVarint32(in, &f)) return Status::Corruption(field_error);
    fields->push_back(static_cast<int>(f));
  }
  return Status::OK();
}

/// The decoded instance list of one attachment type's descriptor field.
///
/// `Inst` provides:
///   uint32_t no;                                   // the instance number
///   static constexpr const char* kType;            // names the type in
///                                                  // error texts
///   void EncodeTo(std::string* dst) const;         // payload only
///   static Status DecodeFrom(Slice* in, Inst* inst);
///       // payload only; must assign every payload member, because one
///       // scratch instance is reused across the entries of a field
template <typename Inst>
class InstanceList {
 public:
  /// Replaces this list with the instances encoded in `field`.
  Status Decode(Slice field) {
    instances_.clear();
    return Parse(field, &next_no_, [this](Inst& inst) {
      instances_.push_back(std::move(inst));
    });
  }

  /// Calls fn(Inst&) for each instance of `field` in order, decoding into
  /// one reused scratch instance: enumeration without building the list.
  template <typename Fn>
  static Status Visit(Slice field, Fn&& fn) {
    uint32_t next_no;
    return Parse(field, &next_no, std::forward<Fn>(fn));
  }

  /// Replaces *dst with the field encoding: empty once the last instance
  /// is gone, so the descriptor field reads as absent again.
  void EncodeTo(std::string* dst) const {
    dst->clear();
    if (instances_.empty()) return;
    PutVarint32(dst, next_no_);
    PutVarint32(dst, static_cast<uint32_t>(instances_.size()));
    for (const Inst& inst : instances_) {
      PutVarint32(dst, inst.no);
      inst.EncodeTo(dst);
    }
  }

  /// Appends `inst` under the next instance number and returns it.
  uint32_t Add(Inst inst) {
    inst.no = next_no_++;
    instances_.push_back(std::move(inst));
    return instances_.back().no;
  }

  /// Removes instance `no`; NotFound names the type when it is absent.
  Status Drop(uint32_t no) {
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      if (it->no == no) {
        instances_.erase(it);
        return Status::OK();
      }
    }
    return NotFound(no);
  }

  const Inst* Find(uint32_t no) const {
    for (const Inst& inst : instances_) {
      if (inst.no == no) return &inst;
    }
    return nullptr;
  }
  Inst* Find(uint32_t no) {
    return const_cast<Inst*>(std::as_const(*this).Find(no));
  }

  static Status NotFound(uint32_t no) {
    return Status::NotFound(std::string(Inst::kType) + " instance " +
                            std::to_string(no));
  }

  bool empty() const { return instances_.empty(); }
  size_t size() const { return instances_.size(); }
  const Inst& operator[](size_t i) const { return instances_[i]; }
  typename std::vector<Inst>::const_iterator begin() const {
    return instances_.begin();
  }
  typename std::vector<Inst>::const_iterator end() const {
    return instances_.end();
  }

 private:
  template <typename Fn>
  static Status Parse(Slice field, uint32_t* next_no, Fn&& fn) {
    *next_no = 1;
    if (field.empty()) return Status::OK();
    uint32_t count;
    if (!GetVarint32(&field, next_no) || !GetVarint32(&field, &count)) {
      return Status::Corruption(std::string(Inst::kType) + " descriptor");
    }
    Inst inst;
    for (uint32_t i = 0; i < count; ++i) {
      if (!GetVarint32(&field, &inst.no)) {
        return Status::Corruption(std::string(Inst::kType) + " instance");
      }
      DMX_RETURN_IF_ERROR(Inst::DecodeFrom(&field, &inst));
      fn(inst);
    }
    return Status::OK();
  }

  uint32_t next_no_ = 1;
  std::vector<Inst> instances_;
};

/// Runtime state of an attachment type whose state is its decoded instance
/// list alone (check, deferred_check, refint, trigger): `Open` is its
/// AtOps::open. The list never changes while the state is open, so hooks
/// read it without a lock. `Self`, when given, is the derived state type
/// that `Open` builds and `Of` returns (DerivedState passes itself).
template <typename Inst, typename Self = void>
class InstanceState : public ExtState {
 public:
  using State =
      std::conditional_t<std::is_void_v<Self>, InstanceState, Self>;

  static Status Open(AtContext& ctx, std::unique_ptr<ExtState>* state) {
    auto owned = std::make_unique<State>();
    DMX_RETURN_IF_ERROR(owned->instances_.Decode(ctx.at_desc));
    *state = std::move(owned);
    return Status::OK();
  }

  static State* Of(const AtContext& ctx) {
    return static_cast<State*>(ctx.state);
  }

  /// The instances, in descriptor order.
  const InstanceList<Inst>& instances() const { return instances_; }

 private:
  InstanceList<Inst> instances_;
};

// -- generic AtOps slots -----------------------------------------------------
// A type built on InstanceList<Inst> points its bookkeeping slots here, e.g.
// `o.drop_instance = &DropInstanceOf<HashInstance>`.

/// AtOps::drop_instance: the descriptor without instance `instance_no`.
template <typename Inst>
Status DropInstanceOf(AtContext& ctx, uint32_t instance_no,
                      std::string* new_desc) {
  InstanceList<Inst> list;
  DMX_RETURN_IF_ERROR(list.Decode(ctx.at_desc));
  DMX_RETURN_IF_ERROR(list.Drop(instance_no));
  list.EncodeTo(new_desc);
  return Status::OK();
}

/// AtOps::instance_count: 0 for an absent or undecodable field.
template <typename Inst>
uint32_t InstanceCountOf(const Slice& at_desc) {
  uint32_t count = 0;
  Status s = InstanceList<Inst>::Visit(at_desc, [&count](Inst&) { ++count; });
  return s.ok() ? count : 0;
}

/// AtOps::list_instances.
template <typename Inst>
Status ListInstancesOf(const Slice& at_desc, std::vector<uint32_t>* out) {
  out->clear();
  return InstanceList<Inst>::Visit(
      at_desc, [out](Inst& inst) { out->push_back(inst.no); });
}

/// AtOps::instance_fields, for instances keyed by a `fields` member.
template <typename Inst>
Status InstanceFieldsOf(const Slice& at_desc, uint32_t instance,
                        std::vector<int>* fields) {
  bool found = false;
  DMX_RETURN_IF_ERROR(InstanceList<Inst>::Visit(at_desc, [&](Inst& inst) {
    if (inst.no != instance) return;
    *fields = inst.fields;
    found = true;
  }));
  if (!found) {
    return Status::NotFound(std::string(Inst::kType) + " instance");
  }
  return Status::OK();
}

/// AtOps::guards_integrity for types whose every instance is a constraint:
/// true while instance `instance_no` exists.
template <typename Inst>
bool GuardsIntegrityOf(const Slice& at_desc, uint32_t instance_no) {
  bool found = false;
  Status s = InstanceList<Inst>::Visit(
      at_desc, [&](Inst& inst) { found = found || inst.no == instance_no; });
  return s.ok() && found;
}

}  // namespace dmx

#endif  // DMX_CORE_ATTACHMENT_INSTANCES_H_
