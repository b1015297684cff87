//===- support/Random.h - Deterministic pseudo-randomness -------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SplitMix64-based RNG used everywhere the reproduction needs
/// randomness (workload sampling, work-group cost jitter). The simulator
/// and benches never read the wall clock, so results are reproducible
/// bit-for-bit across runs.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_SUPPORT_RANDOM_H
#define ACCEL_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace accel {

/// SplitMix64: tiny, fast, well-distributed 64-bit generator.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// \returns the next raw 64-bit value.
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }

  /// \returns a uniform integer in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow with zero bound");
    // Rejection sampling to avoid modulo bias.
    uint64_t Threshold = (0 - Bound) % Bound;
    for (;;) {
      uint64_t R = next();
      if (R >= Threshold)
        return R % Bound;
    }
  }

  /// \returns a uniform integer in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "inverted range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// \returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// \returns a double in [Lo, Hi).
  double nextDoubleInRange(double Lo, double Hi) {
    return Lo + (Hi - Lo) * nextDouble();
  }

  /// Fisher-Yates shuffle of \p Items.
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[nextBelow(I)]);
  }

private:
  uint64_t State;
};

} // namespace accel

#endif // ACCEL_SUPPORT_RANDOM_H
