#include "src/util/coding.h"

namespace dmx {

void PutVarint32(std::string* dst, uint32_t v) {
  unsigned char buf[5];
  int i = 0;
  while (v >= 0x80) {
    buf[i++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), i);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int i = 0;
  while (v >= 0x80) {
    buf[i++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), i);
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && !input->empty(); shift += 7) {
    uint32_t byte = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint64_t byte = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

bool GetDouble(Slice* input, double* value) {
  if (input->size() < 8) return false;
  *value = DecodeDouble(input->data());
  input->remove_prefix(8);
  return true;
}

void PutOrderedInt64(std::string* dst, int64_t v) {
  // Flip the sign bit so negatives sort below positives, then big-endian.
  uint64_t u = static_cast<uint64_t>(v) ^ (1ull << 63);
  char buf[8];
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<char>(u & 0xff);
    u >>= 8;
  }
  dst->append(buf, 8);
}

int64_t DecodeOrderedInt64(const char* p) {
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u = (u << 8) | static_cast<unsigned char>(p[i]);
  }
  return static_cast<int64_t>(u ^ (1ull << 63));
}

void PutOrderedDouble(std::string* dst, double v) {
  uint64_t bits;
  memcpy(&bits, &v, 8);
  // For non-negative doubles set the sign bit; for negative flip all bits.
  if (bits & (1ull << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ull << 63);
  }
  char buf[8];
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<char>(bits & 0xff);
    bits >>= 8;
  }
  dst->append(buf, 8);
}

double DecodeOrderedDouble(const char* p) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) | static_cast<unsigned char>(p[i]);
  }
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double v;
  memcpy(&v, &bits, 8);
  return v;
}

}  // namespace dmx
