#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"

namespace sdl::linalg {

namespace {

/// Dot product with four independent accumulators combined pairwise —
/// breaks the serial add chain so the loop vectorizes and pipelines.
/// Factorization and extend() form every entry through it, which keeps
/// an extended factor bitwise equal to a full refactorization.
[[nodiscard]] double dot4(const double* x, const double* y, std::size_t len) noexcept {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= len; k += 4) {
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
    }
    double tail = 0.0;
    for (; k < len; ++k) tail += x[k] * y[k];
    return ((s0 + s1) + (s2 + s3)) + tail;
}

/// Forward substitution L Y = B, in place, over the m right-hand sides
/// stored as the columns of the row-major n x m block at `b`. Every
/// solve runs this one body (solve_lower with m = 1), so multi-RHS
/// results equal per-column solves bit for bit: columns never mix, and
/// each element sees the same operations in the same order.
///
/// Columns are swept in tiles so each tile's slab stays L1-resident
/// while the O(n^2) row sweep runs over it. The Fused flag adds the two
/// GP reductions to the same pass; weighted_sums accumulates before row
/// i is overwritten, sq_norms after it is finished, both in ascending
/// row order (so they equal dot(b, weights) and dot(y, y)).
template <bool Fused>
void lower_sweep(const Matrix& l, double* b, std::size_t m,
                 std::span<const double> weights, std::span<double> weighted_sums,
                 std::span<double> sq_norms) {
    constexpr std::size_t kTile = 64;
    const std::size_t n = l.rows();
    for (std::size_t j0 = 0; j0 < m; j0 += kTile) {
        const std::size_t tile = std::min(kTile, m - j0);
        for (std::size_t i = 0; i < n; ++i) {
            double* row_i = b + i * m + j0;
            if constexpr (Fused) {
                const double wi = weights[i];
                double* wsum = weighted_sums.data() + j0;
                for (std::size_t j = 0; j < tile; ++j) wsum[j] += row_i[j] * wi;
            }
            // Two update rows per pass halves the traffic over row_i
            // (the bandwidth-bound half of the sweep).
            std::size_t k = 0;
            for (; k + 2 <= i; k += 2) {
                const double lik0 = l(i, k);
                const double lik1 = l(i, k + 1);
                const double* row_k0 = b + k * m + j0;
                const double* row_k1 = b + (k + 1) * m + j0;
                for (std::size_t j = 0; j < tile; ++j) {
                    row_i[j] -= lik0 * row_k0[j] + lik1 * row_k1[j];
                }
            }
            for (; k < i; ++k) {
                const double lik = l(i, k);
                const double* row_k = b + k * m + j0;
                for (std::size_t j = 0; j < tile; ++j) row_i[j] -= lik * row_k[j];
            }
            const double inv = 1.0 / l(i, i);
            for (std::size_t j = 0; j < tile; ++j) row_i[j] *= inv;
            if constexpr (Fused) {
                double* sq = sq_norms.data() + j0;
                for (std::size_t j = 0; j < tile; ++j) sq[j] += row_i[j] * row_i[j];
            }
        }
    }
}

}  // namespace

Cholesky::Cholesky(const Matrix& a) {
    support::check(a.rows() == a.cols(), "cholesky: matrix must be square");
    const std::size_t n = a.rows();
    l_ = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        const double* lj = l_.row(j).data();
        const double diag = a(j, j) - dot4(lj, lj, j);
        if (!(diag > 0.0) || !std::isfinite(diag)) {
            throw support::Error("linalg", "matrix is not positive definite (pivot " +
                                               std::to_string(j) + ")");
        }
        const double ljj = std::sqrt(diag);
        l_(j, j) = ljj;
        const double inv = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            l_(i, j) = (a(i, j) - dot4(l_.row(i).data(), lj, j)) * inv;
        }
    }
}

Vec Cholesky::solve_lower(const Vec& b) const {
    support::check(b.size() == size(), "cholesky solve: size mismatch");
    Vec y = b;
    lower_sweep<false>(l_, y.data(), 1, {}, {}, {});
    return y;
}

Vec Cholesky::solve(const Vec& b) const {
    const std::size_t n = size();
    Vec y = solve_lower(b);
    // Back substitution with Lᵀ.
    Vec x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
        x[ii] = s / l_(ii, ii);
    }
    return x;
}

void Cholesky::solve_lower_multi(Matrix& b) const {
    support::check(b.rows() == size(), "cholesky solve_lower_multi: size mismatch");
    lower_sweep<false>(l_, b.data(), b.cols(), {}, {}, {});
}

void Cholesky::solve_lower_multi_fused(Matrix& b, std::span<const double> weights,
                                       std::span<double> weighted_sums,
                                       std::span<double> sq_norms) const {
    const std::size_t n = size();
    support::check(b.rows() == n, "cholesky solve_lower_multi: size mismatch");
    const std::size_t m = b.cols();
    support::check(weights.size() == n && weighted_sums.size() == m &&
                       sq_norms.size() == m,
                   "cholesky solve_lower_multi_fused: reduction size mismatch");
    std::fill(weighted_sums.begin(), weighted_sums.end(), 0.0);
    std::fill(sq_norms.begin(), sq_norms.end(), 0.0);
    lower_sweep<true>(l_, b.data(), m, weights, weighted_sums, sq_norms);
}

void Cholesky::extend(const Vec& b, double c) {
    const std::size_t n = size();
    support::check(b.size() == n, "cholesky extend: size mismatch");
    // New bottom row y = L⁻¹ b, each entry formed exactly as the
    // constructor forms row n of the extended matrix's factor.
    Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = (b[i] - dot4(l_.row(i).data(), y.data(), i)) * (1.0 / l_(i, i));
    }
    const double d2 = c - dot4(y.data(), y.data(), n);
    if (!(d2 > 0.0) || !std::isfinite(d2)) {
        throw support::Error("linalg",
                             "extend: matrix is not positive definite (pivot " +
                                 std::to_string(n) + ")");
    }
    Matrix grown(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
    }
    for (std::size_t k = 0; k < n; ++k) grown(n, k) = y[k];
    grown(n, n) = std::sqrt(d2);
    l_ = std::move(grown);
}

double Cholesky::log_det() const noexcept {
    double s = 0.0;
    for (std::size_t i = 0; i < size(); ++i) s += std::log(l_(i, i));
    return 2.0 * s;
}

Cholesky cholesky_with_jitter(Matrix a, double initial_jitter, int max_attempts) {
    double jitter = initial_jitter;
    // Scale the first jitter to the matrix magnitude so tiny and huge
    // kernels both factor on early attempts.
    const double scale = a.max_abs();
    if (scale > 0.0) jitter *= scale;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        try {
            return Cholesky(a);
        } catch (const support::Error&) {
            a.add_diagonal(jitter);
            jitter *= 10.0;
        }
    }
    return Cholesky(a);  // Final attempt; propagate its error if it fails.
}

}  // namespace sdl::linalg
