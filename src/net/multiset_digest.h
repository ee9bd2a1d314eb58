#ifndef VIEWMAT_NET_MULTISET_DIGEST_H_
#define VIEWMAT_NET_MULTISET_DIGEST_H_

#include <cstdint>

#include "db/tuple.h"

namespace viewmat::net {

/// Order-independent digest of a counted tuple multiset, fed one (tuple,
/// count) entry at a time:
///
///   value = Σ count × Mix64(Tuple::Hash(t) ^ domain)   (mod 2^64)
///
/// The sum is linear in the counts, so the digest does not depend on the
/// order of the entries, (t, 2) equals (t, 1) fed twice, and zero-count
/// entries contribute nothing. Tuple::Hash covers every value's bits
/// (doubles by their IEEE representation), so the digest is exact on
/// values — no text rendering rounds two answers together. Distinct
/// `domain` tags keep multisets of different roles apart when one digest
/// covers several.
///
/// Header-only: the server layer, which sits below net, digests its state
/// with the same accumulator.
class MultisetDigest {
 public:
  MultisetDigest() = default;
  explicit MultisetDigest(uint64_t domain) : domain_(domain) {}

  void Add(const db::Tuple& t, int64_t count) {
    sum_ += static_cast<uint64_t>(count) * Mix64(t.Hash() ^ domain_);
  }

  uint64_t value() const { return sum_; }

 private:
  /// splitmix64's finalizer: a bijection that spreads every input bit
  /// over the whole word, so sums of mixed hashes do not cancel by
  /// structure.
  static uint64_t Mix64(uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t domain_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace viewmat::net

#endif  // VIEWMAT_NET_MULTISET_DIGEST_H_
