#include "src/util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define DMX_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace dmx {
namespace {

struct Crc32cTable {
  uint32_t t[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

#ifdef DMX_CRC32C_X86
// One _mm_crc32_u64 waits on the previous one (3 cycles of latency, one
// issue per cycle), so a single CRC chain runs at a third of the unit's
// throughput. Blocks of three equal streams keep three chains in flight;
// the stream CRCs are then joined by shifting each earlier one over the
// bytes that follow it. The raw register (no pre/post inversion) is linear
// over GF(2), so crc(s, A||B) = Shift(crc(s, A), |B|) ^ crc(0, B), and a
// shift by a fixed length is a 32x32 bit matrix, applied by four 256-entry
// tables, one per byte of the register.
constexpr size_t kLongStream = 1024;  // bytes per stream, long blocks
constexpr size_t kShortStream = 128;  // bytes per stream, short blocks

struct ShiftTable {
  uint32_t t[4][256];
  // The tables that shift a raw register over `n` zero bytes.
  explicit ShiftTable(size_t n) {
    const uint32_t* table = Table().t;
    uint32_t bit_shift[32];
    for (int b = 0; b < 32; ++b) {
      uint32_t l = 1u << b;
      for (size_t i = 0; i < n; ++i) l = table[l & 0xFF] ^ (l >> 8);
      bit_shift[b] = l;
    }
    for (int byte = 0; byte < 4; ++byte) {
      for (uint32_t v = 0; v < 256; ++v) {
        uint32_t out = 0;
        for (int b = 0; b < 8; ++b) {
          if (v & (1u << b)) out ^= bit_shift[byte * 8 + b];
        }
        t[byte][v] = out;
      }
    }
  }
  uint32_t Shift(uint32_t l) const {
    return t[0][l & 0xFF] ^ t[1][(l >> 8) & 0xFF] ^ t[2][(l >> 16) & 0xFF] ^
           t[3][l >> 24];
  }
};

// Runs the raw register `l` over `blocks` blocks of three `stream`-byte
// streams at `p`.
__attribute__((target("sse4.2"))) uint64_t ExtendStreams(
    uint64_t l, const unsigned char* p, size_t blocks, size_t stream,
    const ShiftTable& shift) {
  for (; blocks > 0; --blocks, p += 3 * stream) {
    const unsigned char* b = p + stream;
    const unsigned char* c = b + stream;
    uint64_t l1 = 0, l2 = 0;
    for (size_t i = 0; i < stream; i += 8) {
      uint64_t x, y, z;
      memcpy(&x, p + i, 8);
      memcpy(&y, b + i, 8);
      memcpy(&z, c + i, 8);
      l = _mm_crc32_u64(l, x);
      l1 = _mm_crc32_u64(l1, y);
      l2 = _mm_crc32_u64(l2, z);
    }
    l = shift.Shift(static_cast<uint32_t>(l)) ^ l1;
    l = shift.Shift(static_cast<uint32_t>(l)) ^ l2;
  }
  return l;
}

// Finishes the raw register `l` over p[0, n): 8 bytes at a time, then
// the last few one by one. Returns the finalized CRC.
__attribute__((target("sse4.2"), always_inline)) inline uint32_t ExtendTail(
    uint64_t l, const unsigned char* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t chunk;
    memcpy(&chunk, p, 8);
    l = _mm_crc32_u64(l, chunk);
  }
  uint32_t l32 = static_cast<uint32_t>(l);
  for (; n > 0; --n) l32 = _mm_crc32_u8(l32, *p++);
  return l32 ^ 0xFFFFFFFFu;
}

// Finishes `l` over p[0, n): the whole long blocks, then the whole short
// blocks, then the tail. Out of line and entered by a tail call, so that
// the short buffers (WAL frames) that never reach a block keep a leaf
// function's tight loop.
__attribute__((target("sse4.2"), noinline)) uint32_t ExtendBlocks(
    uint64_t l, const unsigned char* p, size_t n) {
  static const ShiftTable long_shift(kLongStream);
  static const ShiftTable short_shift(kShortStream);
  const size_t long_blocks = n / (3 * kLongStream);
  l = ExtendStreams(l, p, long_blocks, kLongStream, long_shift);
  p += long_blocks * 3 * kLongStream;
  n -= long_blocks * 3 * kLongStream;
  const size_t short_blocks = n / (3 * kShortStream);
  l = ExtendStreams(l, p, short_blocks, kShortStream, short_shift);
  p += short_blocks * 3 * kShortStream;
  n -= short_blocks * 3 * kShortStream;
  return ExtendTail(l, p, n);
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const char* data,
                                                          size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t l = crc ^ 0xFFFFFFFFu;
  // Align to 8 bytes, then consume three streams at a time while whole
  // blocks remain, and 8 bytes at a time after them.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    l = _mm_crc32_u8(l, *p++);
    --n;
  }
  if (n >= 3 * kShortStream) return ExtendBlocks(l, p, n);
  return ExtendTail(l, p, n);
}
#endif  // DMX_CRC32C_X86

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef DMX_CRC32C_X86
  if (__builtin_cpu_supports("sse4.2")) return &ExtendHardware;
#endif
  return &internal::Crc32cExtendSoftware;
}

ExtendFn DispatchedExtend() {
  static const ExtendFn fn = ChooseExtend();
  return fn;
}

}  // namespace

namespace internal {

uint32_t Crc32cExtendSoftware(uint32_t crc, const char* data, size_t n) {
  const uint32_t* table = Table().t;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t l = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    l = table[(l ^ p[i]) & 0xFF] ^ (l >> 8);
  }
  return l ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return DispatchedExtend()(crc, data, n);
}

bool Crc32cHardwareAccelerated() {
#ifdef DMX_CRC32C_X86
  return DispatchedExtend() == &ExtendHardware;
#else
  return false;
#endif
}

}  // namespace dmx
