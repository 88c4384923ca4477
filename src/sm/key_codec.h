// Order-preserving encoding of field values into index / record keys.
//
// Every field is encoded as a tag byte (0 = NULL, 1 = value) followed by a
// type-specific order-preserving encoding; memcmp order of the
// concatenation equals (field1, field2, ...) tuple order with NULLs first.
// Strings are 0x00-escaped and 0x00 0x00 terminated so that multi-field
// keys with variable-length strings still compare correctly.

#ifndef DMX_SM_KEY_CODEC_H_
#define DMX_SM_KEY_CODEC_H_

#include <optional>
#include <string>
#include <vector>

#include "src/types/record.h"
#include "src/types/value.h"
#include "src/util/status.h"

namespace dmx {

/// Append the order-preserving encoding of `v` to `out`.
Status EncodeKeyValue(const Value& v, std::string* out);

/// Compose a key from the given fields of a record.
Status EncodeFieldKey(const RecordView& view, const std::vector<int>& fields,
                      std::string* out);

/// Compose a key from explicit values (planner-side bound construction).
Status EncodeValueKey(const std::vector<Value>& values, std::string* out);

/// Append one key operand `v`, compared against a key field of type
/// `field_type`, to `key`. A NULL `v` sets *null and appends nothing; a
/// type the evaluator could not compare with the field is InvalidArgument.
Status AppendKeyOperand(const Value& v, TypeId field_type, std::string* key,
                        bool* null);

/// The operand values of an access key over key fields of the given
/// column types: one equality value per leading field, then lower and
/// upper bound values on the field after them.
struct KeyOperandValues {
  std::vector<Value> eq;
  std::vector<Value> low;
  std::vector<Value> high;
};

/// Encode `ops` into the key range an ordered access path scans: `prefix`
/// is the equality prefix; `low`/`high` hold the tightest bound per side
/// (the largest lower, the smallest upper), both inclusive because the
/// executor re-checks strictness, and `high` extended with 0xff so
/// multi-field keys that start with it qualify. A side with neither a bound
/// nor a prefix stays open. A NULL operand sets *empty: no key qualifies.
Status EncodeKeyRange(const KeyOperandValues& ops,
                      const std::vector<TypeId>& types, std::string* prefix,
                      std::optional<std::string>* low,
                      std::optional<std::string>* high, bool* empty);

/// Decode one field from the front of an encoded key, advancing `in`.
/// `type` is the column type the field was encoded from. The inverse of
/// EncodeKeyValue — used for index-only access, where the paper notes an
/// access path "may be able to return record fields when the access path
/// key is a multi-field value".
Status DecodeKeyValue(Slice* in, TypeId type, Value* out);

/// Decode an entire key composed from fields of the given types.
Status DecodeFieldKey(const Slice& key, const std::vector<TypeId>& types,
                      std::vector<Value>* out);

}  // namespace dmx

#endif  // DMX_SM_KEY_CODEC_H_
