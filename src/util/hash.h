// 64-bit mixing and seeded hash streams.
//
// These are the primitives beneath the set-hash (min-hash) signatures:
// each signature component uses an independently seeded hash function
// over data-tree node IDs. We use SplitMix64-style finalizers, which
// pass standard avalanche tests and are cheap and deterministic across
// platforms. ChecksumBytes is the bulk hash for long byte runs (the
// TWCST03 page checksum).

#ifndef TWIG_UTIL_HASH_H_
#define TWIG_UTIL_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace twig {

/// SplitMix64 finalizer: a strong 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes `value` under the hash function identified by `seed`.
/// Different seeds give (empirically) independent hash functions.
inline uint64_t SeededHash64(uint64_t seed, uint64_t value) {
  return Mix64(value + Mix64(seed + 0x2545f4914f6cdd1dULL));
}

/// FNV-1a over bytes; stable across platforms. Byte-serial, so meant
/// for short keys: label strings, canonical query text, result-cache
/// keys. Long byte runs use ChecksumBytes.
inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = 0) {
  uint64_t h = 14695981039346656037ULL ^ Mix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

namespace hash_internal {

inline constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
inline constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
inline constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
inline constexpr uint64_t kP5 = 0x27d4eb2f165667c5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Word(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t MergeRound(uint64_t h, uint64_t lane) {
  return (h ^ Round(0, lane)) * kP1 + kP4;
}

}  // namespace hash_internal

/// The xxHash64 algorithm (host byte order): four independent lanes
/// consume 32 bytes per iteration, then 8-byte words and single bytes
/// of the tail, then a final avalanche. Word-parallel, so it runs at
/// memory speed where HashBytes pays one dependent multiply per byte.
inline uint64_t ChecksumBytes(std::string_view bytes, uint64_t seed = 0) {
  using namespace hash_internal;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h;
  if (bytes.size() >= 32) {
    uint64_t v1 = seed + kP1 + kP2;
    uint64_t v2 = seed + kP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Word(p));
      v2 = Round(v2, Word(p + 8));
      v3 = Round(v3, Word(p + 16));
      v4 = Round(v4, Word(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kP5;
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, Word(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    uint32_t half;
    std::memcpy(&half, p, sizeof(half));
    h = Rotl(h ^ (uint64_t{half} * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl(h ^ (uint64_t{static_cast<unsigned char>(*p)} * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

/// Combines two hash values (order-dependent).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace twig

#endif  // TWIG_UTIL_HASH_H_
