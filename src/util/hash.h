// Copyright (c) DBExplorer reproduction authors.
// The one 64-bit FNV-1a used for persisted identities: content-addressed
// snapshot ids, DBXC checksums and the scaled generator's row fingerprints.
// Every value it produces is pinned by a golden test, so the constants and
// the byte order of the fold must never change.

#pragma once

#include <cstddef>
#include <cstdint>

namespace dbx {

inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `n` bytes at `data` into the FNV-1a state `h` and returns the new
/// state. Start from kFnv1aOffset.
inline uint64_t Fnv1aAppend(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace dbx
