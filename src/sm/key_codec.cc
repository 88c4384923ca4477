#include "src/sm/key_codec.h"

#include "src/util/coding.h"

namespace dmx {

Status EncodeKeyValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back('\0');
    return Status::OK();
  }
  out->push_back('\1');
  switch (v.type()) {
    case TypeId::kBool:
      out->push_back(v.bool_value() ? 1 : 0);
      return Status::OK();
    case TypeId::kInt64:
      // Encode integers as ordered doubles so that INT and DOUBLE key
      // components compare consistently (cross-type numeric predicates).
      PutOrderedDouble(out, static_cast<double>(v.int_value()));
      return Status::OK();
    case TypeId::kDouble:
      PutOrderedDouble(out, v.double_value());
      return Status::OK();
    case TypeId::kString: {
      const std::string& s = v.string_value();
      for (char c : s) {
        out->push_back(c);
        if (c == '\0') out->push_back('\xff');
      }
      out->push_back('\0');
      out->push_back('\0');
      return Status::OK();
    }
    case TypeId::kNull:
      return Status::OK();
  }
  return Status::InvalidArgument("unencodable key value");
}

Status EncodeFieldKey(const RecordView& view, const std::vector<int>& fields,
                      std::string* out) {
  for (int f : fields) {
    DMX_RETURN_IF_ERROR(
        EncodeKeyValue(view.GetValue(static_cast<size_t>(f)), out));
  }
  return Status::OK();
}

Status EncodeValueKey(const std::vector<Value>& values, std::string* out) {
  for (const Value& v : values) {
    DMX_RETURN_IF_ERROR(EncodeKeyValue(v, out));
  }
  return Status::OK();
}

Status AppendKeyOperand(const Value& v, TypeId field_type, std::string* key,
                        bool* null) {
  if (v.is_null()) {
    *null = true;
    return Status::OK();
  }
  const bool numeric_field =
      field_type == TypeId::kInt64 || field_type == TypeId::kDouble;
  if (v.type() != field_type && !(numeric_field && v.is_numeric())) {
    return Status::InvalidArgument(std::string("cannot compare ") +
                                   TypeName(field_type) + " with " +
                                   TypeName(v.type()));
  }
  return EncodeKeyValue(v, key);
}

Status EncodeKeyRange(const KeyOperandValues& ops,
                      const std::vector<TypeId>& types, std::string* prefix,
                      std::optional<std::string>* low,
                      std::optional<std::string>* high, bool* empty) {
  *empty = false;
  prefix->clear();
  for (size_t i = 0; i < ops.eq.size(); ++i) {
    DMX_RETURN_IF_ERROR(AppendKeyOperand(ops.eq[i], types[i], prefix, empty));
    if (*empty) return Status::OK();
  }
  auto tightest = [&](const std::vector<Value>& operands, int sign,
                      std::optional<std::string>* bound) -> Status {
    const Value* best = nullptr;
    for (const Value& v : operands) {
      std::string ignored;
      DMX_RETURN_IF_ERROR(
          AppendKeyOperand(v, types[ops.eq.size()], &ignored, empty));
      if (*empty) return Status::OK();
      if (best == nullptr || sign * v.Compare(*best) > 0) best = &v;
    }
    *bound = *prefix;
    if (best != nullptr) DMX_RETURN_IF_ERROR(EncodeKeyValue(*best, &**bound));
    return Status::OK();
  };
  low->reset();
  high->reset();
  if (!ops.low.empty() || !ops.eq.empty()) {
    DMX_RETURN_IF_ERROR(tightest(ops.low, +1, low));
    if (*empty) return Status::OK();
  }
  if (!ops.high.empty() || !ops.eq.empty()) {
    DMX_RETURN_IF_ERROR(tightest(ops.high, -1, high));
    if (*empty) return Status::OK();
    **high += '\xff';  // include multi-field extensions of the bound
  }
  return Status::OK();
}

Status DecodeKeyValue(Slice* in, TypeId type, Value* out) {
  if (in->empty()) return Status::Corruption("key truncated");
  char tag = (*in)[0];
  in->remove_prefix(1);
  if (tag == '\0') {
    *out = Value::Null();
    return Status::OK();
  }
  switch (type) {
    case TypeId::kBool:
      if (in->empty()) return Status::Corruption("key bool");
      *out = Value::Bool((*in)[0] != 0);
      in->remove_prefix(1);
      return Status::OK();
    case TypeId::kInt64: {
      if (in->size() < 8) return Status::Corruption("key int");
      double d = DecodeOrderedDouble(in->data());
      in->remove_prefix(8);
      // Integers were widened to ordered doubles; narrow back.
      *out = Value::Int(static_cast<int64_t>(d));
      return Status::OK();
    }
    case TypeId::kDouble: {
      if (in->size() < 8) return Status::Corruption("key double");
      *out = Value::Double(DecodeOrderedDouble(in->data()));
      in->remove_prefix(8);
      return Status::OK();
    }
    case TypeId::kString: {
      std::string s;
      while (true) {
        if (in->empty()) return Status::Corruption("key string");
        char c = (*in)[0];
        in->remove_prefix(1);
        if (c != '\0') {
          s.push_back(c);
          continue;
        }
        if (in->empty()) return Status::Corruption("key string escape");
        char next = (*in)[0];
        in->remove_prefix(1);
        if (next == '\0') break;  // terminator
        if (next != '\xff') return Status::Corruption("key string escape");
        s.push_back('\0');
      }
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    case TypeId::kNull:
      *out = Value::Null();
      return Status::OK();
  }
  return Status::Corruption("key type");
}

Status DecodeFieldKey(const Slice& key, const std::vector<TypeId>& types,
                      std::vector<Value>* out) {
  out->clear();
  Slice in = key;
  for (TypeId t : types) {
    Value v;
    DMX_RETURN_IF_ERROR(DecodeKeyValue(&in, t, &v));
    out->push_back(std::move(v));
  }
  if (!in.empty()) return Status::Corruption("trailing key bytes");
  return Status::OK();
}

}  // namespace dmx
