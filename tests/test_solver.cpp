// Tests for the optimization solvers: the paper's genetic algorithm, the
// Gaussian-process Bayesian solver, and the baselines — including
// closed-loop convergence on the simulated color-mixing objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

#include "color/mixing.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "solver/anneal.hpp"
#include "solver/baselines.hpp"
#include "solver/bayes.hpp"
#include "solver/factory.hpp"
#include "solver/genetic.hpp"
#include "solver/pattern.hpp"
#include "support/common.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

using namespace sdl::solver;
using sdl::color::BeerLambertMixer;
using sdl::color::Rgb8;
using sdl::support::Rng;

namespace {

constexpr Rgb8 kTarget{120, 120, 120};

/// Simulated objective: mix the ratios, add camera-like measurement
/// noise, return the RGB Euclidean distance to the target.
class NoisyObjective {
public:
    explicit NoisyObjective(std::uint64_t seed, double noise_sigma = 2.0)
        : rng_(seed), noise_sigma_(noise_sigma) {}

    Observation evaluate(const std::vector<double>& ratios) {
        const Rgb8 truth = mixer_.mix_ratios(ratios);
        auto jitter = [&](std::uint8_t v) {
            const long q = std::lround(v + rng_.normal(0.0, noise_sigma_));
            return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
        };
        Observation obs;
        obs.ratios = ratios;
        obs.measured = {jitter(truth.r), jitter(truth.g), jitter(truth.b)};
        obs.score = sdl::color::rgb_distance(obs.measured, kTarget);
        return obs;
    }

    const BeerLambertMixer& mixer() const { return mixer_; }

private:
    BeerLambertMixer mixer_;
    Rng rng_;
    double noise_sigma_;
};

/// Runs a solver for `budget` samples in batches of `batch`, returning
/// the best score seen.
double run_loop(Solver& solver, NoisyObjective& objective, std::size_t budget,
                std::size_t batch) {
    double best = 1e300;
    std::size_t done = 0;
    while (done < budget) {
        const std::size_t n = std::min(batch, budget - done);
        const auto proposals = solver.ask(n);
        std::vector<Observation> observations;
        observations.reserve(proposals.size());
        for (const auto& p : proposals) {
            observations.push_back(objective.evaluate(p));
            best = std::min(best, observations.back().score);
        }
        solver.tell(observations);
        done += n;
    }
    return best;
}

}  // namespace

// -------------------------------------------------------------- interface

TEST(SolverBase, TracksBestAcrossTells) {
    GeneticSolver solver(0x6E7E71C);
    EXPECT_FALSE(solver.best().has_value());
    Observation a{{0.5, 0.5, 0.5, 0.5}, {100, 100, 100}, 30.0};
    Observation b{{0.2, 0.2, 0.2, 0.2}, {118, 121, 119}, 3.0};
    Observation c{{0.9, 0.1, 0.1, 0.1}, {60, 150, 180}, 80.0};
    solver.tell(std::vector<Observation>{a});
    EXPECT_DOUBLE_EQ(solver.best()->score, 30.0);
    solver.tell(std::vector<Observation>{b, c});
    EXPECT_DOUBLE_EQ(solver.best()->score, 3.0);
}

TEST(SolverBase, ProposalValidation) {
    EXPECT_TRUE(is_valid_proposal(std::vector<double>{0.1, 0.2, 0.3, 0.4}));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{0.1, 0.2, 0.3}));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{0.1, 0.2, 0.3, 0.2, 0.1}));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{-0.1, 0.2, 0.3, 0.4}));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{0.0, 0.0, 0.0, 0.0}));
    EXPECT_FALSE(is_valid_proposal(std::vector<double>{1.2, 0.0, 0.0, 0.0}));
}

// ---------------------------------------------------------------- genetic

TEST(Genetic, InitialPopulationComesFromUniformGrid) {
    GeneticSolver solver(0x6E7E71C);
    const auto proposals = solver.ask(16);
    ASSERT_EQ(proposals.size(), 16u);
    for (const auto& p : proposals) {
        ASSERT_EQ(p.size(), 4u);
        for (const double r : p) {
            // Grid values are multiples of 1/(levels-1) = 0.25 (5 levels).
            const double scaled = r * 4.0;
            EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
        }
        EXPECT_TRUE(is_valid_proposal(p));
    }
}

TEST(Genetic, ElitePropagatedIntoNextGeneration) {
    GeneticSolver solver(0x6E7E71C);
    auto initial = solver.ask(9);
    std::vector<Observation> observations;
    for (std::size_t i = 0; i < initial.size(); ++i) {
        observations.push_back({initial[i], {0, 0, 0}, 50.0 - static_cast<double>(i)});
    }
    solver.tell(observations);
    const auto next = solver.ask(9);
    // Slot 0 must be the best (lowest score) element of the previous
    // generation: the last one told.
    EXPECT_EQ(next[0], initial.back());
}

TEST(Genetic, ProposalsStayValidAcrossGenerations) {
    GeneticSolver solver(0x6E7E71C);
    NoisyObjective objective(5);
    for (int gen = 0; gen < 12; ++gen) {
        const auto proposals = solver.ask(9);
        std::vector<Observation> observations;
        for (const auto& p : proposals) {
            ASSERT_TRUE(is_valid_proposal(p)) << "generation " << gen;
            observations.push_back(objective.evaluate(p));
        }
        solver.tell(observations);
    }
}

TEST(Genetic, DeterministicForEqualSeeds) {
    GeneticSolver a(77), b(77);
    NoisyObjective obj_a(9), obj_b(9);
    for (int gen = 0; gen < 5; ++gen) {
        const auto pa = a.ask(6);
        const auto pb = b.ask(6);
        ASSERT_EQ(pa, pb) << "generation " << gen;
        std::vector<Observation> oa, ob;
        for (const auto& p : pa) oa.push_back(obj_a.evaluate(p));
        for (const auto& p : pb) ob.push_back(obj_b.evaluate(p));
        a.tell(oa);
        b.tell(ob);
    }
}

TEST(Genetic, ConvergesOnColorMatchingObjective) {
    // Mirrors the paper's B=8 setting at N=128: final best distance must
    // land in Figure 4's end range (roughly <= 15) for typical seeds.
    sdl::support::OnlineStats finals;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        GeneticSolver solver(seed);
        NoisyObjective objective(seed * 13);
        finals.add(run_loop(solver, objective, 128, 8));
    }
    EXPECT_LT(finals.mean(), 15.0);
    EXPECT_LT(finals.max(), 25.0);
}

TEST(Genetic, BatchSizeOneStillImproves) {
    GeneticSolver solver(3);
    NoisyObjective objective(31);
    const double best = run_loop(solver, objective, 128, 1);
    EXPECT_LT(best, 15.0);
}

TEST(Genetic, BeatsRandomSearchOnAverage) {
    sdl::support::OnlineStats genetic_scores, random_scores;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        GeneticSolver genetic(seed);
        NoisyObjective obj_a(seed * 101);
        genetic_scores.add(run_loop(genetic, obj_a, 96, 8));

        RandomSolver random_solver(seed);
        NoisyObjective obj_b(seed * 101);
        random_scores.add(run_loop(random_solver, obj_b, 96, 8));
    }
    EXPECT_LT(genetic_scores.mean(), random_scores.mean());
}

// -------------------------------------------------------------------- gp

TEST(GaussianProcess, InterpolatesTrainingPoints) {
    GaussianProcess gp;
    std::vector<std::vector<double>> xs{{0.1, 0.1, 0.1, 0.1},
                                        {0.5, 0.5, 0.5, 0.5},
                                        {0.9, 0.2, 0.4, 0.7}};
    std::vector<double> ys{10.0, 3.0, 25.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto pred = gp.predict(xs[i]);
        EXPECT_NEAR(pred.mean, ys[i], 2.5) << "point " << i;
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
    GaussianProcess gp;
    std::vector<std::vector<double>> xs{{0.5, 0.5, 0.5, 0.5}};
    std::vector<double> ys{1.0};
    gp.fit(xs, ys, /*optimize=*/false);
    const auto near = gp.predict(std::vector<double>{0.5, 0.5, 0.5, 0.52});
    const auto far = gp.predict(std::vector<double>{0.95, 0.05, 0.95, 0.05});
    EXPECT_LT(near.variance, far.variance);
}

TEST(GaussianProcess, LmlPrefersSensibleLengthscale) {
    // Data generated from a smooth function: a mid lengthscale must score
    // at least as well as a pathologically tiny one.
    Rng rng(17);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/false);
    const double lml_mid = gp.log_marginal_likelihood({0.5, 1e-2, 1.0});
    const double lml_tiny = gp.log_marginal_likelihood({0.01, 1e-2, 1.0});
    EXPECT_GT(lml_mid, lml_tiny);
}

namespace {

double rbf(const std::vector<double>& a, const std::vector<double>& b,
           const GaussianProcess::Hyperparams& p) {
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d2 += (a[i] - b[i]) * (a[i] - b[i]);
    return p.signal_var * std::exp(-0.5 * d2 / (p.lengthscale * p.lengthscale));
}

}  // namespace

TEST(GaussianProcess, ObserveMatchesBatchRefitAtFrozenStandardization) {
    // The incremental rank-1 update must reproduce the posterior of a
    // from-scratch fit on the full data at the same hyperparameters and
    // the same (frozen) target standardization. The reference posterior
    // is computed by hand with linalg.
    Rng rng(99);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 12; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1]);
        xs.push_back(std::move(x));
    }
    constexpr std::size_t kBase = 8;

    GaussianProcess gp;
    gp.fit({xs.begin(), xs.begin() + kBase}, {ys.begin(), ys.begin() + kBase},
           /*optimize=*/false);
    const GaussianProcess::Hyperparams p = gp.hyperparams();
    for (std::size_t i = kBase; i < xs.size(); ++i) gp.observe(xs[i], ys[i]);
    ASSERT_EQ(gp.size(), xs.size());

    // Standardization frozen at the first kBase targets, as documented.
    double mean = 0.0;
    for (std::size_t i = 0; i < kBase; ++i) mean += ys[i];
    mean /= static_cast<double>(kBase);
    double var = 0.0;
    for (std::size_t i = 0; i < kBase; ++i) var += (ys[i] - mean) * (ys[i] - mean);
    var /= static_cast<double>(kBase);
    const double scale = std::sqrt(var);

    const std::size_t n = xs.size();
    sdl::linalg::Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) k(i, j) = rbf(xs[i], xs[j], p);
        k(i, i) += p.noise_var;
    }
    sdl::linalg::Vec ys_std(n);
    for (std::size_t i = 0; i < n; ++i) ys_std[i] = (ys[i] - mean) / scale;
    const sdl::linalg::Cholesky chol(k);
    const sdl::linalg::Vec alpha = chol.solve(ys_std);

    const std::vector<double> query{0.3, 0.7, 0.2, 0.6};
    sdl::linalg::Vec kx(n);
    for (std::size_t i = 0; i < n; ++i) kx[i] = rbf(xs[i], query, p);
    const double mean_std = sdl::linalg::dot(kx, alpha);
    const sdl::linalg::Vec v = chol.solve_lower(kx);
    const double var_std = p.signal_var + p.noise_var - sdl::linalg::dot(v, v);

    const auto pred = gp.predict(query);
    EXPECT_NEAR(pred.mean, mean_std * scale + mean, 1e-9);
    EXPECT_NEAR(pred.variance, var_std * scale * scale, 1e-9);
}

TEST(GaussianProcess, ObserveRequiresFitAndMatchingDims) {
    GaussianProcess gp;
    EXPECT_THROW(gp.observe({0.1, 0.2, 0.3, 0.4}, 1.0), sdl::support::LogicError);
    gp.fit({{0.1, 0.2, 0.3, 0.4}}, {1.0}, /*optimize=*/false);
    EXPECT_THROW(gp.observe({0.1, 0.2}, 1.0), sdl::support::LogicError);
    EXPECT_NO_THROW(gp.observe({0.5, 0.5, 0.5, 0.5}, 2.0));
    EXPECT_EQ(gp.size(), 2u);
}

TEST(GaussianProcess, ObserveSurvivesDuplicatePoints) {
    // An exact duplicate stresses the rank-1 extension (near-singular
    // Schur complement with small noise); the GP must stay usable via
    // the jittered-refit fallback if the extension fails.
    GaussianProcess gp;
    gp.fit({{0.2, 0.2, 0.2, 0.2}, {0.8, 0.8, 0.8, 0.8}}, {1.0, -1.0},
           /*optimize=*/false);
    for (int i = 0; i < 4; ++i) gp.observe({0.2, 0.2, 0.2, 0.2}, 1.0);
    EXPECT_EQ(gp.size(), 6u);
    const auto pred = gp.predict(std::vector<double>{0.2, 0.2, 0.2, 0.2});
    EXPECT_TRUE(std::isfinite(pred.mean));
    EXPECT_TRUE(std::isfinite(pred.variance));
}

TEST(GaussianProcess, LmlFastPathMatchesManualComputation) {
    Rng rng(7);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 10; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(x[0] * x[0] - x[2]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/true);
    const GaussianProcess::Hyperparams p = gp.hyperparams();

    // Reference LML computed by hand at the fitted hyperparameters.
    double mean = 0.0;
    for (const double y : ys) mean += y;
    mean /= static_cast<double>(ys.size());
    double var = 0.0;
    for (const double y : ys) var += (y - mean) * (y - mean);
    var /= static_cast<double>(ys.size());
    const double scale = std::sqrt(var);
    const std::size_t n = xs.size();
    sdl::linalg::Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) k(i, j) = rbf(xs[i], xs[j], p);
        k(i, i) += p.noise_var;
    }
    sdl::linalg::Vec ys_std(n);
    for (std::size_t i = 0; i < n; ++i) ys_std[i] = (ys[i] - mean) / scale;
    const sdl::linalg::Cholesky chol(k);
    const double fit_term = sdl::linalg::dot(ys_std, chol.solve(ys_std));
    const double expected = -0.5 * fit_term - 0.5 * chol.log_det() -
                            0.5 * static_cast<double>(n) *
                                std::log(2.0 * std::numbers::pi);

    // The fast path (reusing the fitted factor) must agree with the
    // from-scratch computation, and the fitted params must have won the
    // grid search.
    EXPECT_NEAR(gp.log_marginal_likelihood(p), expected, 1e-9);
    for (const double lengthscale : {0.15, 0.3, 0.6, 1.2}) {
        for (const double noise : {1e-3, 1e-2, 1e-1}) {
            EXPECT_GE(gp.log_marginal_likelihood(p) + 1e-12,
                      gp.log_marginal_likelihood({lengthscale, noise, 1.0}));
        }
    }
}

TEST(GaussianProcess, PredictBatchBitwiseMatchesSequentialPredict) {
    // predict_batch is the solver's hot path; its whole contract is that
    // blocking changes nothing — every entry must carry the exact bits
    // sequential predict() produces. Property sweep: training-set sizes
    // from degenerate to solver-realistic, varying query counts, several
    // seeds, and near-duplicate training points (hard conditioning).
    for (const std::uint64_t seed : {103u, 211u, 307u}) {
        for (const std::size_t n : {1u, 2u, 3u, 5u, 9u, 17u, 40u, 64u}) {
            Rng rng(seed + n * 13);
            std::vector<std::vector<double>> xs;
            std::vector<double> ys;
            for (std::size_t i = 0; i < n; ++i) {
                std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                                      rng.uniform()};
                // Every third point duplicates its predecessor so the
                // kernel matrix is near-singular, not just friendly.
                if (i % 3 == 2) x = xs.back();
                ys.push_back(std::cos(2.0 * x[0]) + 0.5 * x[2] + 0.1 * rng.normal());
                xs.push_back(std::move(x));
            }
            GaussianProcess gp;
            gp.fit(xs, ys, /*optimize=*/n >= 9);

            const std::size_t m = 1 + (seed + n * 7) % 64;
            sdl::linalg::Matrix queries(m, 4);
            for (std::size_t j = 0; j < m; ++j)
                for (std::size_t k = 0; k < 4; ++k) queries(j, k) = rng.uniform();

            const auto batch = gp.predict_batch(queries);
            ASSERT_EQ(batch.size(), m);
            for (std::size_t j = 0; j < m; ++j) {
                const auto seq = gp.predict(queries.row(j));
                EXPECT_EQ(batch[j].mean, seq.mean)
                    << "seed=" << seed << " n=" << n << " query " << j;
                EXPECT_EQ(batch[j].variance, seq.variance)
                    << "seed=" << seed << " n=" << n << " query " << j;
            }
        }
    }
}

TEST(GaussianProcess, PredictBatchBitwiseAfterObserveUpdates) {
    // The batched path runs against the extended Cholesky factor too —
    // constant-liar picks interleave observe() with batch scoring.
    Rng rng(107);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 10; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(4.0 * x[1]) - x[3]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/true);
    for (int round = 0; round < 3; ++round) {
        gp.observe({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()},
                   rng.uniform(-1, 1));
        sdl::linalg::Matrix queries(21, 4);
        for (std::size_t j = 0; j < queries.rows(); ++j)
            for (std::size_t k = 0; k < 4; ++k) queries(j, k) = rng.uniform();
        const auto batch = gp.predict_batch(queries);
        for (std::size_t j = 0; j < queries.rows(); ++j) {
            const auto seq = gp.predict(queries.row(j));
            EXPECT_EQ(batch[j].mean, seq.mean) << "round " << round << " query " << j;
            EXPECT_EQ(batch[j].variance, seq.variance);
        }
    }
}

TEST(GaussianProcess, PredictBatchValidatesShapes) {
    GaussianProcess gp;
    sdl::linalg::Matrix queries(3, 4);
    EXPECT_THROW(gp.predict_batch(queries), sdl::support::LogicError);
    gp.fit({{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}}, {1.0, 2.0},
           /*optimize=*/false);
    EXPECT_TRUE(gp.predict_batch(sdl::linalg::Matrix(0, 4)).empty());
    EXPECT_THROW(gp.predict_batch(sdl::linalg::Matrix(3, 2)),
                 sdl::support::LogicError);
}

TEST(Bayes, ScoreCandidatePoolMatchesPerPointPredict) {
    // n and C sit past the parallel-dispatch threshold (n^2 * C =
    // 524288 >= 262144, C > 64), so the chunked path genuinely runs on
    // the process-wide pool. Chunking must change nothing: every entry
    // carries the exact bits of sequential predict().
    Rng rng(131);
    const std::size_t n = 64;
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                              rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[3]);
        xs.push_back(std::move(x));
    }
    GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/false);

    sdl::linalg::Matrix pool(128, 4);
    for (std::size_t j = 0; j < pool.rows(); ++j)
        for (std::size_t k = 0; k < 4; ++k) pool(j, k) = rng.uniform();

    const auto scored = score_candidate_pool(gp, pool);
    ASSERT_EQ(scored.size(), pool.rows());
    for (std::size_t j = 0; j < pool.rows(); ++j) {
        const auto seq = gp.predict(pool.row(j));
        EXPECT_EQ(scored[j].mean, seq.mean) << "candidate " << j;
        EXPECT_EQ(scored[j].variance, seq.variance) << "candidate " << j;
    }
}

TEST(Bayes, SeedPairedRunsReproduceUnderBatching) {
    // The pool is generated up front and scored in (possibly parallel)
    // blocks; none of that may leak into the proposal stream — two
    // solvers with equal seeds and equal tells must propose identical
    // batches, including past warmup where the GP drives.
    const auto run = [] {
        BayesSolver solver(77);
        NoisyObjective objective(123);
        std::vector<std::vector<std::vector<double>>> asked;
        for (int round = 0; round < 4; ++round) {
            auto proposals = solver.ask(4);
            asked.push_back(proposals);
            std::vector<Observation> obs;
            for (const auto& p : proposals) obs.push_back(objective.evaluate(p));
            solver.tell(obs);
        }
        return asked;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b);
}

namespace {

/// FNV-1a over the bit patterns of `values`: any last-ulp change in any
/// entry changes the digest.
std::uint64_t bit_digest(std::span<const double> values) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double v : values) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

void expect_digest(std::span<const double> values, std::uint64_t want,
                   const char* what) {
    const std::uint64_t got = bit_digest(values);
    EXPECT_EQ(got, want) << what << ": digest 0x" << std::hex << got;
}

void expect_bits(double got, double want, const char* what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << what << ": got " << std::hexfloat << got << ", want " << want;
}

std::vector<double> flatten(const sdl::linalg::Matrix& m) {
    std::vector<double> out;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const auto row = m.row(r);
        out.insert(out.end(), row.begin(), row.end());
    }
    return out;
}

}  // namespace

TEST(GaussianProcess, PinnedBitsAcrossCpus) {
    // The GP's bits are pinned, not just self-consistent: the constants
    // below were recorded from a portable (baseline-ISA) build, and the
    // linalg kernels are compiled into a baseline and an AVX2 copy that
    // the CPU picks between at load time. On an AVX2 host this proves
    // the AVX2 copy equals the baseline copy bit for bit; elsewhere it
    // checks the baseline copy. Inputs use Rng::uniform and plain
    // arithmetic only; the ask() digest also passes through libm
    // (log, exp, erfc), so a mismatch confined to it points there first.
#if defined(__GNUC__) && defined(__x86_64__)
    SCOPED_TRACE(__builtin_cpu_supports("avx2") ? "cpu has avx2" : "cpu lacks avx2");
#endif
    using sdl::linalg::Matrix;
    const auto make_point = [](Rng& rng) {
        return std::vector<double>{rng.uniform(), rng.uniform(), rng.uniform(),
                                   rng.uniform()};
    };
    const auto target = [](const std::vector<double>& x, Rng& rng) {
        return x[0] * x[1] - 0.5 * x[2] + x[3] * x[3] + 0.1 * rng.uniform(-1.0, 1.0);
    };

    {
        // predict_batch at n = 300 on 130 candidates: two full 64-column
        // tiles plus a 2-column one, and odd rows that leave the sweep's
        // single-row remainder.
        Rng rng(9001);
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        for (int i = 0; i < 300; ++i) {
            xs.push_back(make_point(rng));
            ys.push_back(target(xs.back(), rng));
        }
        GaussianProcess gp;
        gp.fit(xs, ys, /*optimize=*/false);
        Matrix queries(130, 4);
        for (std::size_t j = 0; j < queries.rows(); ++j)
            for (std::size_t k = 0; k < 4; ++k) queries(j, k) = rng.uniform();
        const auto batch = gp.predict_batch(queries);
        std::vector<double> flat;
        for (const auto& p : batch) {
            flat.push_back(p.mean);
            flat.push_back(p.variance);
        }
        expect_digest(flat, 0xa4f41c2c2271c605ULL, "predict_batch");
        expect_bits(batch[0].mean, -0x1.ad31fa0ea91d4p-4, "batch[0].mean");
        expect_bits(batch[128].mean, -0x1.7097c5297514cp-3, "batch[128].mean");
        expect_bits(batch[129].variance, 0x1.833fcb0e36067p-9, "batch[129].variance");
    }
    {
        // A 97 x 97 factor (dot4's one-element tail), then extend().
        Rng rng(9002);
        const std::size_t n = 97;
        Matrix pts(n + 1, 4);
        for (std::size_t i = 0; i < pts.rows(); ++i)
            for (std::size_t k = 0; k < 4; ++k) pts(i, k) = rng.uniform();
        Matrix k = sdl::linalg::cross_sq_dist(pts, pts);
        sdl::linalg::rbf_from_sq_dist(k, 1.0, 0.3);
        k.add_diagonal(1e-3);
        Matrix top(n, n);
        sdl::linalg::Vec b(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) top(i, j) = k(i, j);
            b[i] = k(n, i);
        }
        sdl::linalg::Cholesky chol(top);
        expect_digest(flatten(chol.lower()), 0x7f9140d3c44bc594ULL, "factor");
        chol.extend(b, k(n, n));
        expect_digest(flatten(chol.lower()), 0xfd5d048a60dc59eeULL, "extended factor");
        expect_bits(chol.lower()(n, 0), 0x1.d805e71c0eda2p-3, "L(n, 0)");
        expect_bits(chol.lower()(n, n), 0x1.1369b98a32503p-1, "L(n, n)");
    }
    {
        // fit(optimize=true), then one ask(24) past warmup: the
        // hyperparameter grid, the fused scoring sweep on the pool and
        // the constant-liar extend() chain, end to end.
        Rng rng(9003);
        std::vector<Observation> observations;
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        for (int i = 0; i < 64; ++i) {
            const std::vector<double> x = make_point(rng);
            const double score = 10.0 * target(x, rng) + 5.0;
            observations.push_back({x, {0, 0, 0}, score});
            xs.push_back(x);
            ys.push_back(score);
        }
        GaussianProcess gp;
        gp.fit(xs, ys, /*optimize=*/true);
        expect_bits(gp.hyperparams().lengthscale, 0.6, "lengthscale");
        expect_bits(gp.hyperparams().noise_var, 1e-2, "noise_var");
        expect_bits(gp.log_marginal_likelihood(gp.hyperparams()), 0x1.4f38e6d36f98p+1, "lml");

        BayesSolver solver(9004);
        solver.tell(observations);
        const auto proposals = solver.ask(24);
        ASSERT_EQ(proposals.size(), 24u);
        std::vector<double> flat;
        for (const auto& p : proposals) flat.insert(flat.end(), p.begin(), p.end());
        expect_digest(flat, 0x7d45eaa08bc3f88cULL, "ask(24)");
        expect_bits(proposals[23][0], 0x1.8dbe58677a11p-5, "proposals[23][0]");
    }
}

TEST(GaussianProcess, FitValidatesShapes) {
    GaussianProcess gp;
    EXPECT_THROW(gp.fit({}, {}), sdl::support::LogicError);
    EXPECT_THROW(gp.fit({{0.1}}, {1.0, 2.0}), sdl::support::LogicError);
    EXPECT_THROW((void)gp.predict(std::vector<double>{0.1}), sdl::support::LogicError);
}

// ------------------------------------------------------------------ bayes

TEST(Bayes, ExpectedImprovementProperties) {
    // Zero variance -> zero EI.
    EXPECT_DOUBLE_EQ(BayesSolver::expected_improvement(5.0, 0.0, 10.0, 0.0), 0.0);
    // Mean far below incumbent -> EI near the improvement.
    EXPECT_NEAR(BayesSolver::expected_improvement(2.0, 1e-6, 10.0, 0.0), 8.0, 1e-3);
    // Mean far above incumbent with tiny variance -> ~0.
    EXPECT_NEAR(BayesSolver::expected_improvement(20.0, 1e-6, 10.0, 0.0), 0.0, 1e-9);
    // Higher variance -> more EI at equal mean.
    const double low = BayesSolver::expected_improvement(12.0, 0.5, 10.0, 0.0);
    const double high = BayesSolver::expected_improvement(12.0, 9.0, 10.0, 0.0);
    EXPECT_GT(high, low);
    EXPECT_GE(low, 0.0);
}

TEST(Bayes, WarmupProposalsAreRandomAndValid) {
    // The first 8 samples (the warmup) come before the GP.
    BayesSolver solver(0xBA7E5);
    const auto proposals = solver.ask(8);
    ASSERT_EQ(proposals.size(), 8u);
    for (const auto& p : proposals) EXPECT_TRUE(is_valid_proposal(p));
}

TEST(Bayes, BatchProposalsAreDistinct) {
    BayesSolver solver(0xBA7E5);
    NoisyObjective objective(23);
    // Warm up with the 8 random samples the GP waits for.
    auto warm = solver.ask(8);
    std::vector<Observation> observations;
    for (const auto& p : warm) observations.push_back(objective.evaluate(p));
    solver.tell(observations);

    const auto batch = solver.ask(4);
    ASSERT_EQ(batch.size(), 4u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(is_valid_proposal(batch[i]));
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
            EXPECT_NE(batch[i], batch[j]) << "constant liar should separate picks";
        }
    }
}

TEST(Bayes, ImprovesOverWarmupOnSmoothObjective) {
    BayesSolver solver(5);
    NoisyObjective objective(47, /*noise=*/1.0);

    double warmup_best = 1e300;
    auto warm = solver.ask(16);
    std::vector<Observation> observations;
    for (const auto& p : warm) {
        observations.push_back(objective.evaluate(p));
        warmup_best = std::min(warmup_best, observations.back().score);
    }
    solver.tell(observations);

    double model_best = warmup_best;
    for (int round = 0; round < 10; ++round) {
        const auto batch = solver.ask(4);
        std::vector<Observation> obs;
        for (const auto& p : batch) {
            obs.push_back(objective.evaluate(p));
            model_best = std::min(model_best, obs.back().score);
        }
        solver.tell(obs);
    }
    EXPECT_LT(model_best, warmup_best);
    EXPECT_LT(model_best, 20.0);
}

// -------------------------------------------------------------- baselines

TEST(Baselines, GridScansLatticeInOrder) {
    GridSolver solver;
    const auto first = solver.ask(4);
    // 4 levels per dye, first dye fastest, skipping the all-zero corner.
    const double third = 1.0 / 3.0;
    const double two_thirds = 2.0 / 3.0;
    EXPECT_EQ(first[0], (std::vector<double>{third, 0.0, 0.0, 0.0}));
    EXPECT_EQ(first[1], (std::vector<double>{two_thirds, 0.0, 0.0, 0.0}));
    EXPECT_EQ(first[2], (std::vector<double>{1.0, 0.0, 0.0, 0.0}));
    EXPECT_EQ(first[3], (std::vector<double>{0.0, third, 0.0, 0.0}));
}

TEST(Baselines, OracleHitsNoiseFloor) {
    NoisyObjective objective(61);
    OracleSolver solver(objective.mixer(), kTarget, 0x0AC1E);
    const double best = run_loop(solver, objective, 16, 4);
    // Only measurement noise separates the oracle from zero.
    EXPECT_LT(best, 6.0);
}

TEST(Baselines, OracleRejectsUnreachableTarget) {
    const BeerLambertMixer mixer;
    EXPECT_THROW(OracleSolver(mixer, Rgb8{255, 0, 0}, 0x0AC1E),
                 sdl::support::ConfigError);
}

// ---------------------------------------------------------------- factory

TEST(Factory, BuildsEveryRegisteredSolver) {
    const BeerLambertMixer mixer;
    SolverOptions options;
    options.mixer = &mixer;
    for (const std::string& name : solver_names()) {
        const auto solver = make_solver(name, options);
        ASSERT_NE(solver, nullptr) << name;
        EXPECT_EQ(solver->name(), name == "bayesian" ? "bayesian" : name);
        const auto proposals = solver->ask(2);
        EXPECT_EQ(proposals.size(), 2u) << name;
    }
}

TEST(Factory, ProposalStreamsArePinned) {
    // Every solver's proposal stream, pinned bit for bit: three B=1 asks
    // then three B=8 asks from seed 11, each batch told back through the
    // noisy objective, so the cold start, the feedback path and (for the
    // Bayesian solver) the GP past warmup all feed the digest.
    const BeerLambertMixer mixer;
    const std::pair<const char*, std::uint64_t> pinned[] = {
        {"genetic", 0x6a92b54e095ca21fULL}, {"bayesian", 0xb4b39d2093994eaeULL},
        {"anneal", 0xd82669bedfc32518ULL},  {"pattern", 0xa1ae97bdd7352ffeULL},
        {"random", 0x895d4c2ab1af455cULL},  {"grid", 0x80b2763f4d44f488ULL},
        {"oracle", 0xd0a38f4a5bd5b520ULL},
    };
    for (const auto& [name, want] : pinned) {
        SolverOptions options;
        options.seed = 11;
        options.mixer = &mixer;
        const auto solver = make_solver(name, options);
        NoisyObjective objective(11);
        std::vector<double> bits;
        for (const std::size_t batch : {1, 1, 1, 8, 8, 8}) {
            std::vector<Observation> observations;
            for (const auto& p : solver->ask(batch)) {
                bits.insert(bits.end(), p.begin(), p.end());
                observations.push_back(objective.evaluate(p));
            }
            solver->tell(observations);
        }
        expect_digest(bits, want, name);
    }
}

TEST(Factory, UnknownNameThrows) {
    EXPECT_THROW((void)make_solver("simulated_annealing", {}), sdl::support::ConfigError);
}

TEST(Factory, OracleWithoutMixerThrows) {
    EXPECT_THROW((void)make_solver("oracle", {}), sdl::support::ConfigError);
}

TEST(Factory, DimsOtherThanDyeCountThrows) {
    SolverOptions options;
    options.dims = 3;
    for (const std::string& name : solver_names()) {
        EXPECT_THROW((void)make_solver(name, options), sdl::support::ConfigError) << name;
    }
}

// Property sweep: every solver produces valid proposals for varied batch
// sizes, before and after feedback.
class SolverContract
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(SolverContract, ProposalsAlwaysValid) {
    const auto& [name, batch] = GetParam();
    const BeerLambertMixer mixer;
    SolverOptions options;
    options.mixer = &mixer;
    options.seed = 123;
    const auto solver = make_solver(name, options);
    NoisyObjective objective(7);

    for (int round = 0; round < 3; ++round) {
        const auto proposals = solver->ask(batch);
        ASSERT_EQ(proposals.size(), batch);
        std::vector<Observation> observations;
        for (const auto& p : proposals) {
            EXPECT_TRUE(is_valid_proposal(p)) << name << " round " << round;
            observations.push_back(objective.evaluate(p));
        }
        solver->tell(observations);
    }
    EXPECT_TRUE(solver->best().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverContract,
    ::testing::Combine(::testing::Values("genetic", "bayesian", "anneal", "pattern",
                                         "random", "grid", "oracle"),
                       ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{16})));

// ---------------------------------------------------- anneal & pattern

TEST(Anneal, TemperatureCoolsAcrossGenerations) {
    AnnealSolver solver(0xA22EA1);
    NoisyObjective objective(71);
    const double t0 = solver.temperature();
    for (int gen = 0; gen < 5; ++gen) {
        const auto proposals = solver.ask(4);
        std::vector<Observation> obs;
        for (const auto& p : proposals) obs.push_back(objective.evaluate(p));
        solver.tell(obs);
    }
    EXPECT_DOUBLE_EQ(t0, 25.0);
    EXPECT_NEAR(solver.temperature(), t0 * std::pow(0.95, 5), 1e-9);
}

TEST(Anneal, ConvergesOnColorObjective) {
    AnnealSolver solver(5);
    NoisyObjective objective(73);
    const double best = run_loop(solver, objective, 128, 4);
    EXPECT_LT(best, 15.0);
}

TEST(Anneal, ProposalsPerturbAroundState) {
    AnnealSolver solver(0xA22EA1);
    // Seed a state via tell.
    Observation obs{{0.5, 0.5, 0.5, 0.5}, {100, 100, 100}, 10.0};
    solver.tell(std::vector<Observation>{obs});
    for (const auto& p : solver.ask(8)) {
        for (std::size_t d = 0; d < 4; ++d) {
            EXPECT_NEAR(p[d], 0.5, 0.25 + 1e-9);  // the initial step
        }
    }
}

TEST(Pattern, StepShrinksWithoutImprovement) {
    PatternSearchSolver solver(0x9A77E2);
    // Cold start.
    auto initial = solver.ask(4);
    std::vector<Observation> obs;
    for (const auto& p : initial) obs.push_back({p, {0, 0, 0}, 5.0});
    solver.tell(obs);
    EXPECT_DOUBLE_EQ(solver.step(), 0.25);
    // A probe round where nothing improves on the incumbent (score 5).
    auto probes = solver.ask(8);
    obs.clear();
    for (const auto& p : probes) obs.push_back({p, {0, 0, 0}, 50.0});
    solver.tell(obs);
    EXPECT_DOUBLE_EQ(solver.step(), 0.125);
}

TEST(Pattern, ProbesAreAxisAlignedAroundIncumbent) {
    PatternSearchSolver solver(0x9A77E2);
    auto initial = solver.ask(1);
    std::vector<Observation> obs{{initial[0], {0, 0, 0}, 5.0}};
    solver.tell(obs);
    const auto probes = solver.ask(8);
    for (const auto& p : probes) {
        // Each compass probe differs from the incumbent in at most one
        // coordinate (clamping can null a move at the boundary).
        int changed = 0;
        for (std::size_t d = 0; d < 4; ++d) {
            if (std::fabs(p[d] - initial[0][d]) > 1e-12) ++changed;
        }
        EXPECT_LE(changed, 1);
    }
}

TEST(Pattern, ConvergesOnColorObjective) {
    PatternSearchSolver solver(7);
    NoisyObjective objective(79);
    const double best = run_loop(solver, objective, 128, 8);
    EXPECT_LT(best, 15.0);
}
