// Tests for the dense linear algebra kernels (matrix ops, Cholesky,
// least squares) that the GP solver and the vision grid fit rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/fastmath.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

using namespace sdl::linalg;
using sdl::support::Rng;

TEST(Matrix, BasicOps) {
    Matrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;

    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);

    const Vec v{1.0, 1.0, 1.0};
    const Vec av = a * v;
    EXPECT_DOUBLE_EQ(av[0], 6.0);
    EXPECT_DOUBLE_EQ(av[1], 15.0);
}

TEST(Matrix, MatmulAgainstHandComputed) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix b(2, 2);
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, IdentityIsNeutral) {
    Rng rng(5);
    Matrix a(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.uniform(-2, 2);
    const Matrix ai = a * Matrix::identity(4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(ai(i, j), a(i, j));
}

TEST(Matrix, DimensionMismatchThrows) {
    Matrix a(2, 3), b(2, 3);
    EXPECT_THROW((void)(a * b), sdl::support::LogicError);
    const Vec short_vec{1.0, 2.0};
    EXPECT_THROW((void)(a * short_vec), sdl::support::LogicError);
}

TEST(VecOps, DotAxpyNorm) {
    const Vec a{1, 2, 3};
    const Vec b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2(Vec{3, 4}), 5.0);
    Vec y{1, 1, 1};
    axpy(2.0, a, y);
    EXPECT_DOUBLE_EQ(y[2], 7.0);
}

// --------------------------------------------------------------- cholesky

namespace {
/// Random SPD matrix A = B Bᵀ + boost·I. The default boost keeps the
/// matrix comfortably conditioned; the property sweeps also pass tiny
/// boosts (1e-6) so B Bᵀ's near-singular spectrum shows through and the
/// recurrences are exercised at bad conditioning, not just good.
Matrix random_spd(std::size_t n, Rng& rng, double boost) {
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
    Matrix a = b * b.transposed();
    a.add_diagonal(boost);
    return a;
}
Matrix random_spd(std::size_t n, Rng& rng) {
    return random_spd(n, rng, static_cast<double>(n));
}

/// Sizes for the property sweeps: degenerate edges, primes that leave
/// blocking/unroll tails, and solver-realistic n.
constexpr std::size_t kPropertySizes[] = {1, 2, 3, 5, 8, 13, 17, 32, 48, 64};
constexpr double kDiagBoosts[] = {8.0, 1e-2, 1e-6};
constexpr std::uint64_t kPropertySeeds[] = {59, 113, 211};
}  // namespace

TEST(Cholesky, ReconstructsMatrix) {
    Rng rng(31);
    const Matrix a = random_spd(6, rng);
    const Cholesky chol(a);
    const Matrix l = chol.lower();
    const Matrix llt = l * l.transposed();
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(llt(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, SolveSatisfiesSystem) {
    Rng rng(37);
    const Matrix a = random_spd(8, rng);
    Vec b(8);
    for (double& x : b) x = rng.uniform(-5, 5);
    const Vec x = Cholesky(a).solve(b);
    const Vec ax = a * x;
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(Cholesky, LogDetMatchesKnownMatrix) {
    // diag(4, 9) -> det = 36, logdet = log(36).
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(1, 1) = 9;
    EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 1;  // eigenvalues 3, -1
    EXPECT_THROW(Cholesky{a}, sdl::support::Error);
}

TEST(VecOps, CrossSqDistMatchesScalarLoop) {
    Rng rng(53);
    Matrix a(5, 4);
    Matrix b(7, 4);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < 4; ++k) a(i, k) = rng.uniform(-2, 2);
    for (std::size_t j = 0; j < b.rows(); ++j)
        for (std::size_t k = 0; k < 4; ++k) b(j, k) = rng.uniform(-2, 2);

    const Matrix d2 = cross_sq_dist(a, b);
    ASSERT_EQ(d2.rows(), 5u);
    ASSERT_EQ(d2.cols(), 7u);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double want = 0.0;
            for (std::size_t k = 0; k < 4; ++k) {
                const double diff = a(i, k) - b(j, k);
                want += diff * diff;
            }
            // Bitwise: same accumulation order as the scalar loop.
            EXPECT_EQ(d2(i, j), want) << i << "," << j;
        }
    }
}

TEST(FastMath, FastExpTracksStdExpAndClamps) {
    Rng rng(67);
    // Accuracy across the range the GP actually uses (exponents <= 0)
    // plus the positive side: a few ulp of relative error.
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.uniform(-700.0, 700.0);
        const double want = std::exp(x);
        const double got = fast_exp(x);
        EXPECT_NEAR(got, want, std::abs(want) * 1e-14) << "x=" << x;
    }
    EXPECT_EQ(fast_exp(0.0), 1.0);
    // Out-of-range inputs clamp to the boundary values (documented
    // approximation, not IEEE exp): finite at both ends.
    EXPECT_EQ(fast_exp(-1e9), fast_exp(-708.0));
    EXPECT_EQ(fast_exp(1e9), fast_exp(709.0));
    EXPECT_GT(fast_exp(-708.0), 0.0);
    EXPECT_TRUE(std::isfinite(fast_exp(709.0)));
}

TEST(Cholesky, SolveLowerMultiBitwiseMatchesPerColumn) {
    // Property: for every size, RHS count, seed, and conditioning, the
    // blocked multi-RHS sweep carries the exact bits of the scalar
    // per-column forward substitution.
    for (const std::uint64_t seed : kPropertySeeds) {
        for (const std::size_t n : kPropertySizes) {
            Rng rng(seed + n * 331);
            const double boost = kDiagBoosts[(seed + n) % 3];
            const Matrix a = random_spd(n, rng, boost);
            const Cholesky chol(a);
            const std::size_t m = 1 + (seed + n * 7) % 60;
            Matrix b(n, m);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < m; ++j) b(i, j) = rng.uniform(-3, 3);

            Matrix y = b;
            chol.solve_lower_multi(y);
            for (std::size_t j = 0; j < m; ++j) {
                Vec col(n);
                for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
                const Vec want = chol.solve_lower(col);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(y(i, j), want[i])
                        << "n=" << n << " m=" << m << " boost=" << boost << " seed="
                        << seed << " col " << j << " row " << i;
                }
            }
        }
    }
}

TEST(Cholesky, SolveLowerMultiFusedReductionsMatchDots) {
    // Property: the fused solve+reductions path equals the unfused
    // scalar flow — dot(b_col, weights) and dot(y_col, y_col) in
    // ascending-index order — at every size and conditioning.
    for (const std::size_t n : kPropertySizes) {
        Rng rng(61 + n * 977);
        const double boost = kDiagBoosts[n % 3];
        const Matrix a = random_spd(n, rng, boost);
        const Cholesky chol(a);
        const std::size_t m = 1 + (n * 11) % 40;
        Matrix b(n, m);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < m; ++j) b(i, j) = rng.uniform(-3, 3);
        Vec weights(n);
        for (double& w : weights) w = rng.uniform(-1, 1);

        Matrix y = b;
        Vec wsum(m);
        Vec sq(m);
        chol.solve_lower_multi_fused(y, weights, wsum, sq);

        for (std::size_t j = 0; j < m; ++j) {
            Vec col(n);
            for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
            const Vec solved = chol.solve_lower(col);
            EXPECT_EQ(wsum[j], dot(col, weights)) << "n=" << n << " col " << j;
            EXPECT_EQ(sq[j], dot(solved, solved)) << "n=" << n << " col " << j;
            for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y(i, j), solved[i]);
        }

        Matrix wrong_rows(n + 1, m);
        EXPECT_THROW(chol.solve_lower_multi(wrong_rows), sdl::support::LogicError);
        Vec short_sums(m - 1);
        if (m > 1) {
            EXPECT_THROW(chol.solve_lower_multi_fused(y, weights, short_sums, sq),
                         sdl::support::LogicError);
        }
    }
}

TEST(Cholesky, ExtendMatchesFullRefactorizationBitwise) {
    // The rank-1 extension runs the same recurrence in the same order as
    // factoring the (n+1)×(n+1) matrix from scratch, so the factors must
    // agree exactly — this is what lets the GP's incremental observe()
    // reproduce the batch refit bit for bit.
    // Property: at every base size, seed, and conditioning, a chain of
    // three extensions lands on the exact bits of factoring the final
    // matrix from scratch.
    constexpr std::size_t kGrow = 3;
    for (const std::uint64_t seed : kPropertySeeds) {
        for (const std::size_t n : kPropertySizes) {
            Rng rng(seed + n * 41);
            const double boost = kDiagBoosts[(seed + n) % 3];
            const Matrix big = random_spd(n + kGrow, rng, boost);
            Matrix base(n, n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j) base(i, j) = big(i, j);

            Cholesky incremental(base);
            for (std::size_t g = 0; g < kGrow; ++g) {
                const std::size_t grown = n + g;
                Vec b(grown);
                for (std::size_t i = 0; i < grown; ++i) b[i] = big(grown, i);
                incremental.extend(b, big(grown, grown));
            }
            const Cholesky full(big);
            ASSERT_EQ(incremental.size(), n + kGrow);
            for (std::size_t i = 0; i < n + kGrow; ++i) {
                for (std::size_t j = 0; j <= i; ++j) {
                    EXPECT_EQ(incremental.lower()(i, j), full.lower()(i, j))
                        << "n=" << n << " boost=" << boost << " seed=" << seed
                        << " L(" << i << "," << j << ")";
                }
            }
        }
    }
}

TEST(Cholesky, ExtendedFactorSolvesTheExtendedSystem) {
    Rng rng(43);
    const Matrix big = random_spd(7, rng);
    Matrix base(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j) base(i, j) = big(i, j);
    Vec b(6);
    for (std::size_t i = 0; i < 6; ++i) b[i] = big(6, i);
    Cholesky chol(base);
    chol.extend(b, big(6, 6));

    Vec rhs(7);
    for (double& x : rhs) x = rng.uniform(-3, 3);
    const Vec x = chol.solve(rhs);
    const Vec ax = big * x;
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

TEST(Cholesky, ExtendRejectsIndefiniteGrowthAndKeepsFactor) {
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(1, 1) = 9;
    Cholesky chol(a);
    // b chosen so the Schur complement c - bᵀA⁻¹b is negative.
    EXPECT_THROW(chol.extend(Vec{4.0, 0.0}, 1.0), sdl::support::Error);
    EXPECT_EQ(chol.size(), 2u);  // untouched
    EXPECT_NO_THROW(chol.extend(Vec{1.0, 1.0}, 9.0));
    EXPECT_EQ(chol.size(), 3u);
}

TEST(Cholesky, JitterRescuesSemidefiniteMatrix) {
    // Rank-1 PSD matrix (singular): plain Cholesky fails, jittered works.
    Matrix a(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j) a(i, j) = 1.0;
    EXPECT_THROW(Cholesky{a}, sdl::support::Error);
    EXPECT_NO_THROW(cholesky_with_jitter(a));
}

TEST(Cholesky, NonSquareThrows) {
    EXPECT_THROW(Cholesky{Matrix(2, 3)}, sdl::support::LogicError);
}

// ------------------------------------------------------------------ lstsq

TEST(Lstsq, RecoversExactLinearModel) {
    // y = 2x + 1 sampled without noise.
    Matrix a(5, 2);
    Vec b(5);
    for (std::size_t i = 0; i < 5; ++i) {
        const double x = static_cast<double>(i);
        a(i, 0) = x;
        a(i, 1) = 1.0;
        b[i] = 2.0 * x + 1.0;
    }
    const Vec coef = lstsq(a, b);
    EXPECT_NEAR(coef[0], 2.0, 1e-10);
    EXPECT_NEAR(coef[1], 1.0, 1e-10);
}

TEST(Lstsq, RidgeShrinksSolution) {
    Matrix a(4, 1);
    Vec b(4);
    for (std::size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        b[i] = 10.0;
    }
    const Vec plain = lstsq(a, b);
    const Vec ridged = lstsq(a, b, 100.0);
    EXPECT_NEAR(plain[0], 10.0, 1e-10);
    EXPECT_LT(ridged[0], plain[0]);
}

TEST(Lstsq, UnderdeterminedThrows) {
    EXPECT_THROW(lstsq(Matrix(2, 3), Vec(2)), sdl::support::LogicError);
}

TEST(RobustLstsq, IgnoresGrossOutliers) {
    // y = 3x with two wild outliers; Huber IRLS should stay near slope 3,
    // ordinary least squares is dragged away.
    Rng rng(41);
    const std::size_t n = 30;
    Matrix a(n, 1);
    Vec b(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i) / n;
        a(i, 0) = x;
        b[i] = 3.0 * x + rng.normal(0.0, 0.01);
    }
    b[3] = 50.0;
    b[17] = -40.0;
    const Vec ols = lstsq(a, b);
    const Vec robust = robust_lstsq(a, b, 0.1);
    EXPECT_GT(std::fabs(ols[0] - 3.0), 1.0);
    EXPECT_NEAR(robust[0], 3.0, 0.5);
}

// Property sweep: solve accuracy holds across sizes.
class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, SolveResidualSmall) {
    Rng rng(GetParam() * 101 + 7);
    const std::size_t n = GetParam();
    const Matrix a = random_spd(n, rng);
    Vec b(n);
    for (double& x : b) x = rng.uniform(-1, 1);
    const Vec x = cholesky_with_jitter(a).solve(b);
    const Vec ax = a * x;
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) residual = std::max(residual, std::fabs(ax[i] - b[i]));
    EXPECT_LT(residual, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 32u, 64u, 128u));
