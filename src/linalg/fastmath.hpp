// Branch-light transcendental kernels for the blocked linear-algebra hot
// paths.
//
// The GP cross-kernel assembly evaluates exp() once per (training point,
// candidate) pair — O(n·C) calls per constant-liar pick — and libm's exp
// dominates that loop on machines without vector math libraries. This
// header provides a Cephes-style rational approximation whose
// straight-line body auto-vectorizes inside array loops and gives the
// same bits whether or not it is vectorized, so scalar and batched
// callers can mix it without breaking bitwise-identity contracts.
//
// Accuracy: ~1-2 ulp over the supported range, which is far below the
// noise floor of anything the GP posterior feeds (the solver's decisions
// are driven by differences many orders of magnitude larger). This is an
// approximation to exp(), not a drop-in for std::exp: inputs are clamped
// to [-708, 709] (below, the true result would be subnormal-or-zero;
// above, it would overflow), and NaN propagation is not guaranteed.
#pragma once

#include <bit>
#include <cstdint>

namespace sdl::linalg {

/// exp(x) for x in [-708, 709] (inputs outside are clamped), accurate to
/// a couple of ulp. Deterministic: equal inputs give equal bits on every
/// call path, scalar or vectorized.
[[nodiscard]] inline double fast_exp(double x) noexcept {
    // Clamp instead of branching to special values: keeps the body
    // straight-line so the array form vectorizes.
    x = x < -708.0 ? -708.0 : x;
    x = x > 709.0 ? 709.0 : x;

    // Range reduction: n = round(x / ln2) via the 1.5*2^52 shifter trick
    // (valid because |x/ln2| < 2^10 << 2^51), then r = x - n*ln2 in two
    // pieces so r keeps full precision.
    constexpr double kLog2E = 1.4426950408889634073599;
    constexpr double kShifter = 6755399441055744.0;  // 1.5 * 2^52
    constexpr double kLn2Hi = 6.93145751953125e-1;
    constexpr double kLn2Lo = 1.42860682030941723212e-6;
    const double shifted = x * kLog2E + kShifter;
    const double n = shifted - kShifter;  // round-to-nearest integer value
    const double r = (x - n * kLn2Hi) - n * kLn2Lo;

    // Cephes rational approximation: exp(r) = 1 + 2 r P(r^2) / (Q(r^2) -
    // r P(r^2)) for |r| <= ln2/2.
    const double rr = r * r;
    const double p = r * ((1.26177193074810590878e-4 * rr +
                           3.02994407707441961300e-2) *
                              rr +
                          9.99999999999999999910e-1);
    const double q = ((3.00198505138664455042e-6 * rr +
                       2.52448340349684104192e-3) *
                          rr +
                      2.27265548208155028766e-1) *
                         rr +
                     2.00000000000000000005e0;
    const double y = 1.0 + 2.0 * p / (q - p);

    // Scale by 2^n with exponent-field arithmetic; y is in [~0.7, ~1.42]
    // and n in [-1022, 1024), so the biased exponent never wraps. The
    // low mantissa bits of `shifted` hold n + 2^51 in two's complement,
    // and the 2^51 offset vanishes when shifted left by 52 — so the
    // exponent adjustment needs no double->int conversion, keeping the
    // whole body SIMD-friendly.
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) +
                                 (std::bit_cast<std::uint64_t>(shifted) << 52));
}

/// lround-style rounding (half away from zero) without the libm call —
/// for loops that issue it per pixel or per vote. NOT bit-equivalent to
/// std::lround: v + 0.5 itself rounds, so inputs within half an ulp of a
/// .5 boundary can land one integer over (e.g. nextafterf(0.5f, 0) -> 1
/// where lround gives 0). Callers tolerate that by design; do not swap
/// std::lround back in expecting unchanged output.
[[nodiscard]] inline int round_half_away(float v) noexcept {
    return static_cast<int>(v >= 0.0F ? v + 0.5F : v - 0.5F);
}
[[nodiscard]] inline long round_half_away(double v) noexcept {
    return static_cast<long>(v >= 0.0 ? v + 0.5 : v - 0.5);
}

}  // namespace sdl::linalg
