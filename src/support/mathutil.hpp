#pragma once
// Small integer/real math helpers used throughout the complexity
// accounting: the paper's bounds are expressed in terms of log n,
// log log n and the harmonic numbers, so these appear everywhere in
// benches and tests.

#include <cstdint>

namespace drrg {

/// floor(log2(x)) for x >= 1.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x >= 1.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : floor_log2(x - 1) + 1;
}

/// Smallest power of two >= x.
[[nodiscard]] constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
  return x <= 1 ? 1 : std::uint64_t{1} << ceil_log2(x);
}

[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// log2(n) as a real, clamped below at 1 so it can safely appear in
/// denominators of normalised complexity columns for tiny n.
[[nodiscard]] double log2_clamped(double n) noexcept;

/// ln(n) clamped below at 1.
[[nodiscard]] double ln_clamped(double n) noexcept;

/// log2(log2(n)) clamped below at 1 -- the "log log n" of the paper's
/// message bounds.
[[nodiscard]] double loglog2_clamped(double n) noexcept;

/// n-th harmonic number H_n = sum_{i=1..n} 1/i (exact summation for the
/// sizes we simulate; used by tree-count predictions).
[[nodiscard]] double harmonic(std::uint64_t n) noexcept;

/// The DRR probe budget of Algorithm 1: log2(n) - 1 samples, at least 1.
[[nodiscard]] constexpr std::uint32_t drr_probe_budget(std::uint64_t n) noexcept {
  const std::uint32_t lg = ceil_log2(n);
  return lg > 1 ? lg - 1 : 1;
}

/// Round budget of an O(log n) procedure: multiplier * ceil(log2 n),
/// times each stretch factor in turn, times `scale` last -- so the
/// default round_budget_scale of 1.0 leaves the budget bit-exact.
template <class... Stretch>
[[nodiscard]] constexpr std::uint32_t log_rounds(double multiplier, std::uint64_t n,
                                                 double scale, Stretch... stretch) noexcept {
  double rounds = multiplier * static_cast<double>(ceil_log2(n));
  ((rounds *= stretch), ...);
  return static_cast<std::uint32_t>(rounds * scale);
}

/// Number of bits needed to address n nodes (message-size accounting:
/// the model caps messages at O(log n + log s) bits).
[[nodiscard]] constexpr std::uint32_t address_bits(std::uint64_t n) noexcept {
  return ceil_log2(n < 2 ? 2 : n);
}

}  // namespace drrg
