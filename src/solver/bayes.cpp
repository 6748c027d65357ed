#include "solver/bayes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "linalg/fastmath.hpp"
#include "linalg/matrix.hpp"
#include "support/common.hpp"
#include "support/thread_pool.hpp"

namespace sdl::solver {

namespace {
double normal_pdf(double z) noexcept {
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}
double normal_cdf(double z) noexcept { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }
}  // namespace

double GaussianProcess::kernel(std::span<const double> a, std::span<const double> b,
                               const Hyperparams& p) const noexcept {
    // The scalar form of linalg::cross_sq_dist + linalg::rbf_from_sq_dist:
    // the same ascending-dimension sum and the same exponent expression,
    // so every value carries the batch kernels' bits.
    double d2 = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        const double d = a[k] - b[k];
        d2 += d * d;
    }
    const double c = -0.5 / (p.lengthscale * p.lengthscale);
    return p.signal_var * linalg::fast_exp(d2 * c);
}

linalg::Matrix GaussianProcess::train_matrix() const {
    const std::size_t n = xs_.size();
    const std::size_t dims = xs_.front().size();
    linalg::Matrix train(n, dims);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<double> row = train.row(i);
        for (std::size_t k = 0; k < dims; ++k) row[k] = xs_[i][k];
    }
    return train;
}

linalg::Matrix GaussianProcess::kernel_matrix(const Hyperparams& p) const {
    // Assembled with the batch kernels (one cross_sq_dist + one RBF
    // map) instead of n^2 scalar kernel() calls; each entry carries
    // kernel()'s exact bits.
    const std::size_t n = xs_.size();
    const linalg::Matrix train = train_matrix();
    linalg::Matrix k = linalg::cross_sq_dist(train, train);
    linalg::rbf_from_sq_dist(k, p.signal_var, p.lengthscale);
    for (std::size_t i = 0; i < n; ++i) k(i, i) += p.noise_var;
    return k;
}

double GaussianProcess::lml_terms(const linalg::Cholesky& chol,
                                  const linalg::Vec& alpha) const {
    const double fit_term = linalg::dot(ys_std_, alpha);
    return -0.5 * fit_term - 0.5 * chol.log_det() -
           0.5 * static_cast<double>(xs_.size()) * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::factorize(const Hyperparams& p) {
    chol_ =
        std::make_unique<linalg::Cholesky>(linalg::cholesky_with_jitter(kernel_matrix(p)));
    alpha_ = chol_->solve(ys_std_);
    params_ = p;
}

namespace {
bool same_params(const GaussianProcess::Hyperparams& a,
                 const GaussianProcess::Hyperparams& b) noexcept {
    return a.lengthscale == b.lengthscale && a.noise_var == b.noise_var &&
           a.signal_var == b.signal_var;
}
}  // namespace

double GaussianProcess::log_marginal_likelihood(const Hyperparams& p) const {
    // At the fitted hyperparameters the factor and K⁻¹y are already in
    // hand; evaluating the LML there must not rebuild the kernel matrix.
    if (chol_ != nullptr && chol_->size() == xs_.size() && same_params(p, params_)) {
        return lml_terms(*chol_, alpha_);
    }
    const linalg::Cholesky chol = linalg::cholesky_with_jitter(kernel_matrix(p));
    return lml_terms(chol, chol.solve(ys_std_));
}

void GaussianProcess::observe(std::vector<double> x, double y) {
    support::check(fitted() && chol_ != nullptr, "GP observe before fit");
    support::check(x.size() == xs_.front().size(), "GP observe: dimension mismatch");
    const std::size_t n = xs_.size();
    linalg::Vec b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = kernel(xs_[i], x, params_);
    const double c = kernel(x, x, params_) + params_.noise_var;
    xs_.push_back(std::move(x));
    ys_raw_.push_back(y);
    // Standardization is frozen at the last full fit (see header).
    ys_std_.push_back((y - y_mean_) / y_scale_);
    try {
        chol_->extend(b, c);
    } catch (const support::Error&) {
        // Pathological geometry (e.g. an exact duplicate with negligible
        // noise): fall back to the jittered full refit.
        factorize(params_);
        return;
    }
    alpha_ = chol_->solve(ys_std_);
}

void GaussianProcess::fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
                          bool optimize) {
    support::check(xs.size() == ys.size() && !xs.empty(), "GP fit: shape mismatch");
    xs_ = std::move(xs);
    ys_raw_ = std::move(ys);

    // Standardize targets so unit signal variance is a sensible prior.
    double mean = 0.0;
    for (const double y : ys_raw_) mean += y;
    mean /= static_cast<double>(ys_raw_.size());
    double var = 0.0;
    for (const double y : ys_raw_) var += (y - mean) * (y - mean);
    var /= static_cast<double>(ys_raw_.size());
    y_mean_ = mean;
    y_scale_ = var > 1e-12 ? std::sqrt(var) : 1.0;
    ys_std_.resize(ys_raw_.size());
    for (std::size_t i = 0; i < ys_raw_.size(); ++i) {
        ys_std_[i] = (ys_raw_[i] - y_mean_) / y_scale_;
    }

    // The previous fit's factor describes other data; drop it so the LML
    // fast path cannot reuse it by accident during the grid search.
    chol_.reset();
    alpha_.clear();

    if (!optimize) {
        factorize(params_);
        return;
    }
    // Grid-search hyperparameters by LML, keeping the winning candidate's
    // factor and K⁻¹y so the chosen kernel matrix is factored exactly
    // once — the old flow re-factorized the winner from scratch.
    double best_lml = -1e300;
    Hyperparams best = params_;
    std::unique_ptr<linalg::Cholesky> best_chol;
    linalg::Vec best_alpha;
    for (const double lengthscale : {0.15, 0.3, 0.6, 1.2}) {
        for (const double noise : {1e-3, 1e-2, 1e-1}) {
            const Hyperparams p{lengthscale, noise, 1.0};
            auto chol = std::make_unique<linalg::Cholesky>(
                linalg::cholesky_with_jitter(kernel_matrix(p)));
            linalg::Vec alpha = chol->solve(ys_std_);
            const double lml = lml_terms(*chol, alpha);
            if (lml > best_lml) {
                best_lml = lml;
                best = p;
                best_chol = std::move(chol);
                best_alpha = std::move(alpha);
            }
        }
    }
    if (best_chol == nullptr) {
        factorize(best);  // unreachable unless the grid is empty
        return;
    }
    chol_ = std::move(best_chol);
    alpha_ = std::move(best_alpha);
    params_ = best;
}

GaussianProcess::Prediction GaussianProcess::predict(std::span<const double> x) const {
    support::check(fitted(), "GP predict before fit");
    const std::size_t n = xs_.size();
    linalg::Vec kx(n);
    for (std::size_t i = 0; i < n; ++i) kx[i] = kernel(xs_[i], x, params_);

    const double mean_std = linalg::dot(kx, alpha_);
    const linalg::Vec v = chol_->solve_lower(kx);
    double var_std = params_.signal_var + params_.noise_var - linalg::dot(v, v);
    if (var_std < 1e-12) var_std = 1e-12;

    return {mean_std * y_scale_ + y_mean_, var_std * y_scale_ * y_scale_};
}

std::vector<GaussianProcess::Prediction> GaussianProcess::predict_batch(
    const linalg::Matrix& x) const {
    support::check(fitted(), "GP predict before fit");
    support::check(x.cols() == xs_.front().size(),
                   "GP predict_batch: dimension mismatch");
    const std::size_t m = x.rows();
    std::vector<Prediction> out(m);
    if (m == 0) return out;

    const linalg::Matrix train = train_matrix();

    // Cross-kernel matrix, column j = k(train, x_j); each entry carries
    // kernel()'s bits.
    linalg::Matrix kx = linalg::cross_sq_dist(train, x);
    linalg::rbf_from_sq_dist(kx, params_.signal_var, params_.lengthscale);

    // One fused sweep: multi-RHS forward substitution plus the mean and
    // |L^-1 k_*|^2 reductions.
    linalg::Vec mean_std(m);
    linalg::Vec sq_norm(m);
    chol_->solve_lower_multi_fused(kx, alpha_, mean_std, sq_norm);

    for (std::size_t j = 0; j < m; ++j) {
        double var_std = params_.signal_var + params_.noise_var - sq_norm[j];
        if (var_std < 1e-12) var_std = 1e-12;
        out[j] = {mean_std[j] * y_scale_ + y_mean_, var_std * y_scale_ * y_scale_};
    }
    return out;
}

std::vector<GaussianProcess::Prediction> score_candidate_pool(
    const GaussianProcess& gp, const linalg::Matrix& pool) {
    const std::size_t n = gp.size();
    const std::size_t candidates = pool.rows();
    const std::size_t dims = pool.cols();
    // Below this n^2 * C work estimate one blocked pass beats the
    // dispatch overhead; above it the pool splits into row chunks (each
    // still a blocked multi-RHS pass). 2^18 puts the paper-scale case
    // (n = 64, C = 256) on the parallel side.
    constexpr std::size_t kParallelWork = 262'144;
    constexpr std::size_t kChunk = 64;
    if (candidates <= kChunk || n * n * candidates < kParallelWork) {
        return gp.predict_batch(pool);
    }
    const std::size_t chunks = (candidates + kChunk - 1) / kChunk;
    auto chunked =
        support::global_pool().parallel_map(chunks, [&](std::size_t chunk_index) {
            const std::size_t begin = chunk_index * kChunk;
            const std::size_t end = std::min(candidates, begin + kChunk);
            linalg::Matrix block(end - begin, dims);
            for (std::size_t c = begin; c < end; ++c) {
                const std::span<const double> src = pool.row(c);
                const std::span<double> dst = block.row(c - begin);
                for (std::size_t k = 0; k < dims; ++k) dst[k] = src[k];
            }
            return gp.predict_batch(block);
        });
    std::vector<GaussianProcess::Prediction> preds;
    preds.reserve(candidates);
    for (auto& block : chunked) preds.insert(preds.end(), block.begin(), block.end());
    return preds;
}

// ------------------------------------------------------------ BayesSolver

namespace {

constexpr double kExploration = 0.01;  ///< EI xi (in standardized units)
constexpr std::size_t kCandidates = 512;  ///< random EI candidates per proposal
constexpr std::size_t kWarmup = 8;        ///< random samples before the GP kicks in
/// Cap on training points; the most recent ones are kept (the kernel
/// solve is O(n^3)).
constexpr std::size_t kMaxPoints = 256;

}  // namespace

BayesSolver::BayesSolver(std::uint64_t seed) : rng_(seed) {}

double BayesSolver::expected_improvement(double mean, double variance, double best_y,
                                         double xi) noexcept {
    const double sigma = std::sqrt(variance);
    if (sigma < 1e-12) return 0.0;
    const double improvement = best_y - mean - xi;
    const double z = improvement / sigma;
    const double ei = improvement * normal_cdf(z) + sigma * normal_pdf(z);
    return ei > 0.0 ? ei : 0.0;
}

void BayesSolver::fill_candidate_pool(linalg::Matrix& pool) {
    const std::optional<Observation> best_obs = best();  // best() returns by value
    for (std::size_t c = 0; c < pool.rows(); ++c) {
        const std::span<double> candidate = pool.row(c);
        // Half the pool is global-uniform, half perturbs the incumbent
        // (local refinement).
        if (c % 2 == 0 || !best_obs.has_value()) {
            draw_uniform(rng_, candidate);
        } else {
            const std::vector<double>& incumbent = best_obs->ratios;
            for (std::size_t k = 0; k < candidate.size(); ++k) {
                candidate[k] =
                    support::clamp(incumbent[k] + rng_.normal(0.0, 0.1), 0.0, 1.0);
            }
            // The fallback draw happens here, pool-generation time, so the
            // rng stream is identical to the pre-batching one-at-a-time
            // flow and stays deterministic for seed-paired runs.
            if (!is_valid_proposal(candidate)) draw_uniform(rng_, candidate);
        }
    }
}

std::vector<std::vector<double>> BayesSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);

    if (archive().size() < kWarmup) {
        for (std::size_t i = 0; i < n; ++i) proposals.push_back(draw_uniform(rng_));
        return proposals;
    }

    // Training set: most recent kMaxPoints observations.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    const std::size_t start =
        archive().size() > kMaxPoints ? archive().size() - kMaxPoints : 0;
    for (std::size_t i = start; i < archive().size(); ++i) {
        xs.push_back(archive()[i].ratios);
        ys.push_back(archive()[i].score);
    }

    // One full fit (with hyperparameter search) per batch; the
    // constant-liar points are then absorbed with O(n²) rank-1 updates at
    // the fitted hyperparameters and frozen standardization, instead of
    // re-fitting a fresh O(n³) GP (which also forgot the optimized
    // hyperparameters) for every pick.
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/true);
    double best_y = ys.front();
    for (const double y : ys) best_y = std::min(best_y, y);

    // Constant liar: after each pick, pretend the pick returned the
    // incumbent best so the next pick explores elsewhere. The candidate
    // pool for each pick is generated up front into one contiguous
    // matrix and scored in blocked predict_batch passes; large pools are
    // split across the thread pool (per-candidate results are
    // independent, so chunking changes nothing).
    linalg::Matrix pool(kCandidates, color::kDyes);
    for (std::size_t pick = 0; pick < n; ++pick) {
        // Drawn before the pool, like the old per-pick flow; candidate 0
        // always beats best_ei = -1, so this point is only ever a stream
        // placeholder, never a proposal.
        std::vector<double> best_candidate = draw_uniform(rng_);
        fill_candidate_pool(pool);

        const auto preds = score_candidate_pool(gp, pool);

        double best_ei = -1.0;
        for (std::size_t c = 0; c < kCandidates; ++c) {
            const double ei = expected_improvement(preds[c].mean, preds[c].variance,
                                                   best_y, kExploration);
            if (ei > best_ei) {
                best_ei = ei;
                const std::span<const double> row = pool.row(c);
                best_candidate.assign(row.begin(), row.end());
            }
        }
        if (pick + 1 < n) gp.observe(best_candidate, best_y);  // the lie
        proposals.push_back(std::move(best_candidate));
    }
    return proposals;
}

}  // namespace sdl::solver
