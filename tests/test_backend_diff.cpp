// Differential accuracy suite for the GP's linear-algebra kernels.
//
// Every kernel the GP runs (cross_sq_dist, rbf_from_sq_dist, the
// Cholesky factor and extend, and the plain and fused multi-RHS
// solves) is diffed against an independent naive scalar reference over
// a randomized n x d x C sweep and near the GP jitter floor. The
// kernels re-associate dot products, multiply by reciprocals and run a
// two-term triangular update, so they are held to stated envelopes:
// every element must satisfy |got - ref| <= abs + rel * max(|ref|, scale),
// where `scale` is the kernel's natural magnitude. The bitwise
// identities between the kernels themselves are checked in
// test_linalg.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "linalg/cholesky.hpp"
#include "linalg/fastmath.hpp"
#include "linalg/matrix.hpp"
#include "support/random.hpp"

using namespace sdl::linalg;
using sdl::support::Rng;

namespace {

struct Envelope {
    double rel;
    double abs;
};
// The bitwise-exact kernels still get an envelope: the sweep checks
// accuracy, the identity tests in test_linalg.cpp check bits.
constexpr Envelope kCrossSqDistEnvelope{1e-12, 1e-12};
// The exponent is formed as d2 * (-0.5 / l^2): a couple of ulp of
// argument error, amplified by |argument|.
constexpr Envelope kRbfEnvelope{1e-13, 1e-14};
// Re-associated pivots lose accuracy with conditioning; near the GP
// jitter floor the last pivots carry the brunt of it.
constexpr Envelope kFactorEnvelope{1e-9, 1e-10};
// Reciprocal-multiply rows and the two-term update, amplified by the
// factor's conditioning.
constexpr Envelope kSolveEnvelope{1e-10, 1e-11};

void expect_within(std::span<const double> ref, std::span<const double> got,
                   Envelope env, double scale, const std::string& what) {
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double allowed = env.abs + env.rel * std::max(std::fabs(ref[i]), scale);
        if (!(std::fabs(got[i] - ref[i]) <= allowed)) {
            ADD_FAILURE() << what << ": element " << i << " outside its envelope: got "
                          << got[i] << ", reference " << ref[i] << ", allowed "
                          << allowed;
            return;  // one mismatch per call keeps the log readable
        }
    }
}

void expect_within(const Matrix& ref, const Matrix& got, Envelope env, double scale,
                   const std::string& what) {
    ASSERT_EQ(ref.rows(), got.rows()) << what;
    ASSERT_EQ(ref.cols(), got.cols()) << what;
    for (std::size_t r = 0; r < ref.rows(); ++r) {
        expect_within(ref.row(r), got.row(r), env, scale,
                      what + " row " + std::to_string(r));
    }
}

// Independent scalar references, deliberately written out here rather
// than calling into src/linalg, so they cannot drift with the kernels.

Matrix reference_cross_sq_dist(const Matrix& a, const Matrix& b) {
    Matrix out(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double d2 = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) {
                const double diff = a(i, k) - b(j, k);
                d2 += diff * diff;
            }
            out(i, j) = d2;
        }
    }
    return out;
}

Matrix reference_cholesky_factor(const Matrix& a) {
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
            l(i, j) = s / ljj;
        }
    }
    return l;
}

Matrix reference_rbf_from_sq_dist(Matrix d2, double sv, double ls) {
    for (std::size_t i = 0; i < d2.rows(); ++i) {
        for (std::size_t j = 0; j < d2.cols(); ++j) {
            d2(i, j) = sv * fast_exp(-0.5 * d2(i, j) / (ls * ls));
        }
    }
    return d2;
}

/// Naive per-column forward substitution.
Matrix reference_solve_lower_multi(const Matrix& l, Matrix b) {
    const std::size_t n = l.rows();
    for (std::size_t col = 0; col < b.cols(); ++col) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = b(i, col);
            for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * b(k, col);
            b(i, col) = s / l(i, i);
        }
    }
    return b;
}

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols, double lo, double hi) {
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
    return m;
}

/// Points in the solver's native domain ([0, 1]^d). `duplicate_every`
/// > 0 copies earlier rows verbatim: exact duplicates drive the kernel
/// matrix toward singularity, the way the GP approaches its jitter floor.
Matrix random_points(Rng& rng, std::size_t n, std::size_t d,
                     std::size_t duplicate_every = 0) {
    Matrix pts = random_matrix(rng, n, d, 0.0, 1.0);
    if (duplicate_every > 0) {
        for (std::size_t i = duplicate_every; i < n; i += duplicate_every)
            for (std::size_t k = 0; k < d; ++k) pts(i, k) = pts(i - 1, k);
    }
    return pts;
}

/// RBF gram matrix built from the references, so the factor and solve
/// checks get inputs the kernels under test did not produce.
Matrix gram_matrix(const Matrix& pts, double lengthscale, double noise) {
    Matrix k = reference_rbf_from_sq_dist(reference_cross_sq_dist(pts, pts), 1.0,
                                          lengthscale);
    k.add_diagonal(noise);
    return k;
}

/// n (training points) x d (dims) x C (candidates): the solver's real
/// shapes plus degenerate edges (n = 1, C = 1, sizes that leave unroll
/// tails).
struct CaseShape {
    std::size_t n, d, c;
};
constexpr CaseShape kShapes[] = {
    {1, 2, 1},   {2, 3, 7},   {3, 4, 17},   {5, 4, 33},  {8, 4, 48},
    {13, 3, 64}, {21, 4, 95}, {33, 4, 100}, {48, 6, 128}, {64, 4, 257},
};
constexpr std::uint64_t kSweepSeeds[] = {11, 29, 47};

}  // namespace

TEST(LinalgAccuracy, KernelsStayInsideEnvelopesOfNaiveReferences) {
    // The GP's hyperparameter grid plus noise levels down to the
    // jitter-floor neighborhood; duplicate points make the hard
    // factorizations show up, not just the friendly ones.
    constexpr double kLengthscales[] = {0.15, 0.3, 0.6, 1.2};
    constexpr double kNoises[] = {1e-1, 1e-3, 1e-8};
    std::size_t case_index = 0;
    for (const std::uint64_t seed : kSweepSeeds) {
        for (const CaseShape& shape : kShapes) {
            Rng rng(seed * 6151 + shape.n * 257 + shape.d);
            const double ls = kLengthscales[case_index % 4];
            const double noise = kNoises[case_index % 3];
            const std::size_t duplicate_every = case_index % 2 == 0 ? 3 : 0;
            ++case_index;
            const std::string ctx = "n=" + std::to_string(shape.n) +
                                    " d=" + std::to_string(shape.d) +
                                    " c=" + std::to_string(shape.c) +
                                    " seed=" + std::to_string(seed);

            const Matrix pts = random_points(rng, shape.n, shape.d, duplicate_every);
            const Matrix queries = random_matrix(rng, shape.c, shape.d, -0.5, 1.5);

            const Matrix d2_ref = reference_cross_sq_dist(pts, queries);
            expect_within(d2_ref, cross_sq_dist(pts, queries), kCrossSqDistEnvelope,
                          d2_ref.max_abs(), "cross_sq_dist " + ctx);

            Matrix rbf = d2_ref;
            rbf_from_sq_dist(rbf, 1.0, ls);
            expect_within(reference_rbf_from_sq_dist(d2_ref, 1.0, ls), rbf, kRbfEnvelope,
                          1.0, "rbf_from_sq_dist " + ctx);

            const Matrix gram = gram_matrix(pts, ls, noise);
            Cholesky chol(gram);
            expect_within(reference_cholesky_factor(gram), chol.lower(), kFactorEnvelope,
                          gram.max_abs(), "cholesky factor " + ctx);

            // Multi-RHS solves, plain and fused, against that factor.
            const Matrix rhs = random_matrix(rng, shape.n, shape.c, -1.0, 1.0);
            const Matrix y_ref = reference_solve_lower_multi(chol.lower(), rhs);
            Matrix y = rhs;
            chol.solve_lower_multi(y);
            expect_within(y_ref, y, kSolveEnvelope, y_ref.max_abs(),
                          "solve_lower_multi " + ctx);

            Vec weights(shape.n);
            for (double& w : weights) w = rng.uniform(-1, 1);
            Vec ws_ref(shape.c, 0.0);
            Vec sq_ref(shape.c, 0.0);
            for (std::size_t j = 0; j < shape.c; ++j) {
                for (std::size_t i = 0; i < shape.n; ++i) {
                    ws_ref[j] += rhs(i, j) * weights[i];
                    sq_ref[j] += y_ref(i, j) * y_ref(i, j);
                }
            }
            Matrix fused = rhs;
            Vec ws(shape.c);
            Vec sq(shape.c);
            chol.solve_lower_multi_fused(fused, weights, ws, sq);
            expect_within(y_ref, fused, kSolveEnvelope, y_ref.max_abs(),
                          "solve_lower_multi_fused " + ctx);
            double ws_scale = 0.0;
            for (const double v : ws_ref) ws_scale = std::max(ws_scale, std::fabs(v));
            double sq_scale = 0.0;
            for (const double v : sq_ref) sq_scale = std::max(sq_scale, std::fabs(v));
            expect_within(ws_ref, ws, kSolveEnvelope, ws_scale, "weighted_sums " + ctx);
            expect_within(sq_ref, sq, kSolveEnvelope, sq_scale, "sq_norms " + ctx);

            // extend() by one fresh point, against the reference factor of
            // the grown gram matrix.
            Matrix grown_pts(shape.n + 1, shape.d);
            for (std::size_t i = 0; i < shape.n; ++i)
                for (std::size_t k = 0; k < shape.d; ++k) grown_pts(i, k) = pts(i, k);
            const Matrix extra = random_points(rng, 1, shape.d);
            for (std::size_t k = 0; k < shape.d; ++k) grown_pts(shape.n, k) = extra(0, k);
            const Matrix grown_gram = gram_matrix(grown_pts, ls, noise);
            Vec b(shape.n);
            for (std::size_t i = 0; i < shape.n; ++i) b[i] = grown_gram(shape.n, i);
            chol.extend(b, grown_gram(shape.n, shape.n));
            expect_within(reference_cholesky_factor(grown_gram), chol.lower(),
                          kFactorEnvelope, grown_gram.max_abs(),
                          "cholesky extend " + ctx);
        }
    }
}

TEST(LinalgAccuracy, IllConditionedFactorNearJitterFloorStaysInEnvelope) {
    // Exact duplicate points with a noise nugget barely above the GP's
    // scale-relative initial jitter (1e-10): the smallest pivots sit
    // orders of magnitude below the matrix scale, which is where a
    // re-associated factorization loses the most accuracy.
    for (const std::uint64_t seed : kSweepSeeds) {
        Rng rng(seed * 104729);
        const Matrix pts = random_points(rng, 32, 4, /*duplicate_every=*/2);
        for (const double noise : {1e-6, 1e-9}) {
            const Matrix gram = gram_matrix(pts, 0.3, noise);
            expect_within(reference_cholesky_factor(gram), Cholesky(gram).lower(),
                          kFactorEnvelope, gram.max_abs(),
                          "noise=" + std::to_string(noise) +
                              " seed=" + std::to_string(seed));
        }
    }
}
