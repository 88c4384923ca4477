// Binary encoding helpers: fixed-width little-endian integers, varints, and
// length-prefixed strings. Every persistent encoding in the system (records,
// record keys, log payloads, descriptors) is built from these primitives so
// that extension descriptor blobs remain portable byte strings.

#ifndef DMX_UTIL_CODING_H_
#define DMX_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/util/slice.h"

namespace dmx {

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  memcpy(buf, &v, 2);
  dst->append(buf, 2);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutDouble(std::string* dst, double v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  memcpy(&v, p, 2);
  return v;
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

inline double DecodeDouble(const char* p) {
  double v;
  memcpy(&v, p, 8);
  return v;
}

/// Append a varint32 to `dst`.
void PutVarint32(std::string* dst, uint32_t v);
/// Append a varint64 to `dst`.
void PutVarint64(std::string* dst, uint64_t v);

/// Parse a varint32 from the front of `input`, advancing it.
/// Returns false on truncated/overlong input.
bool GetVarint32(Slice* input, uint32_t* value);
/// Parse a varint64 from the front of `input`, advancing it.
bool GetVarint64(Slice* input, uint64_t* value);

/// Append a varint length prefix followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
/// Parse a length-prefixed slice from the front of `input`, advancing it.
/// The returned slice aliases `input`'s underlying storage. Inline, with
/// one-byte lengths decoded in place: B-tree descents walk a node's packed
/// entries with it.
inline bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint32_t len;
  if (!input->empty() && static_cast<unsigned char>((*input)[0]) < 0x80) {
    len = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
  } else if (!GetVarint32(input, &len)) {
    return false;
  }
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

/// Parse fixed-width values from the front of `input`, advancing it.
inline bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}
bool GetFixed64(Slice* input, uint64_t* value);
bool GetDouble(Slice* input, double* value);

/// Order-preserving encoding of an int64 (flips the sign bit, big-endian)
/// so that memcmp order on the encoding equals numeric order. Used for
/// composing index keys from integer fields.
void PutOrderedInt64(std::string* dst, int64_t v);
int64_t DecodeOrderedInt64(const char* p);

/// Order-preserving encoding of a double (IEEE-754 bit tricks).
void PutOrderedDouble(std::string* dst, double v);
double DecodeOrderedDouble(const char* p);

}  // namespace dmx

#endif  // DMX_UTIL_CODING_H_
