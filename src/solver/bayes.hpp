// Bayesian optimization solver (§2.5): a Gaussian-process surrogate over
// mixing ratios with expected-improvement acquisition.
//
// The paper built theirs on scikit-learn; this is a from-scratch
// equivalent: RBF kernel with a noise nugget, hyperparameters selected by
// log-marginal-likelihood grid search, Cholesky-based posterior, and
// batch proposals via the constant-liar heuristic. The paper reports that
// Bayesian optimization "does not yield a systematic improvement over the
// genetic algorithm" — the solver-ablation bench reproduces that
// comparison.
#pragma once

#include "linalg/cholesky.hpp"
#include "solver/solver.hpp"

namespace sdl::solver {

/// Gaussian-process regression with an isotropic RBF kernel:
///   k(x, x') = signal_var * exp(-|x-x'|^2 / (2 l^2)) + noise_var * [x==x']
/// Targets are standardized internally.
class GaussianProcess {
public:
    struct Hyperparams {
        double lengthscale = 0.4;
        double noise_var = 1e-2;   ///< relative to unit signal variance
        double signal_var = 1.0;
    };

    /// Fits the GP to (xs, ys). When `optimize` is true, a small grid of
    /// lengthscales and noise levels is scored by log marginal likelihood
    /// and the best is kept — the winning candidate's Cholesky factor is
    /// reused directly, so the kernel matrix is never rebuilt for the
    /// chosen hyperparameters.
    void fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
             bool optimize = true);

    /// Incrementally absorbs one observation at the current
    /// hyperparameters: extends the Cholesky factor by the new row
    /// (rank-1 update, O(n²)) instead of refitting the full O(n³)
    /// factorization. The target standardization (mean/scale) stays
    /// frozen at the last fit() so the existing kernel rows remain
    /// valid; refit when the data distribution shifts. The updated
    /// factor is bitwise identical to a from-scratch refactorization at
    /// the same hyperparameters and standardization.
    void observe(std::vector<double> x, double y);

    [[nodiscard]] bool fitted() const noexcept { return !xs_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
    [[nodiscard]] const Hyperparams& hyperparams() const noexcept { return params_; }

    struct Prediction {
        double mean = 0.0;
        double variance = 0.0;
    };
    /// Posterior at a point (in the original, unstandardized units).
    [[nodiscard]] Prediction predict(std::span<const double> x) const;

    /// Posterior at every row of `x` (one query point per row) in one
    /// blocked pass: the cross-kernel matrix is assembled once
    /// (linalg::cross_sq_dist), all right-hand sides go through a single
    /// multi-RHS forward substitution against the cached Cholesky factor,
    /// and the mean/variance reductions are fused into that sweep
    /// (linalg::Cholesky::solve_lower_multi_fused). O(n^2 * C) like C
    /// separate predict() calls, but the inner loops are contiguous
    /// across candidates instead of chasing one dependency chain per
    /// point. Each entry is bitwise identical to predict(x.row(i)).
    [[nodiscard]] std::vector<Prediction> predict_batch(const linalg::Matrix& x) const;

    /// Log marginal likelihood of the standardized targets under `p`.
    /// When `p` equals the fitted hyperparameters, the existing factor
    /// and K⁻¹y are reused instead of rebuilding the kernel matrix.
    [[nodiscard]] double log_marginal_likelihood(const Hyperparams& p) const;

private:
    void factorize(const Hyperparams& p);
    [[nodiscard]] linalg::Matrix train_matrix() const;
    [[nodiscard]] linalg::Matrix kernel_matrix(const Hyperparams& p) const;
    [[nodiscard]] double lml_terms(const linalg::Cholesky& chol,
                                   const linalg::Vec& alpha) const;
    [[nodiscard]] double kernel(std::span<const double> a, std::span<const double> b,
                                const Hyperparams& p) const noexcept;

    std::vector<std::vector<double>> xs_;
    std::vector<double> ys_raw_;
    std::vector<double> ys_std_;  ///< standardized targets
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    Hyperparams params_;
    std::unique_ptr<linalg::Cholesky> chol_;
    linalg::Vec alpha_;  ///< K^-1 y (standardized)
};

/// Scores a candidate pool against a fitted GP — the constant-liar hot
/// path. Small pools run one blocked predict_batch pass; pools with
/// enough work (n^2 * C) are chunked across support::global_pool() with
/// parallel_map. Per-candidate results are independent, so chunking and
/// thread count change nothing: entry i is always bitwise identical to
/// gp.predict(pool.row(i)).
[[nodiscard]] std::vector<GaussianProcess::Prediction> score_candidate_pool(
    const GaussianProcess& gp, const linalg::Matrix& pool);

class BayesSolver final : public Solver {
public:
    explicit BayesSolver(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "bayesian"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

    /// Expected improvement (for minimization) at posterior (mean, var)
    /// against incumbent `best_y`; exposed for tests.
    [[nodiscard]] static double expected_improvement(double mean, double variance,
                                                     double best_y, double xi) noexcept;

private:
    /// Fills `pool` (candidates x kDyes) for one constant-liar pick. The
    /// rng draw order is identical to generating candidates one at a
    /// time inside the scoring loop, so seed-paired runs reproduce the
    /// pre-batching proposal stream exactly.
    void fill_candidate_pool(linalg::Matrix& pool);

    support::Rng rng_;
};

}  // namespace sdl::solver
