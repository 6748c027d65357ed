#include "core/scenario_gen.hpp"

#include <charconv>
#include <cmath>
#include <map>
#include <utility>

#include "core/colorpicker.hpp"
#include "support/common.hpp"
#include "support/mutex.hpp"
#include "support/random.hpp"

namespace sdl::core {

namespace json = support::json;

namespace {

constexpr std::string_view kSeedKey = "seed=";
/// Widest K..M range a single axis entry may expand to.
constexpr std::uint64_t kMaxRangeSpan = 4096;

[[noreturn]] void bad_ref(const std::string& ref, const std::string& why) {
    throw support::ConfigError("bad generated scenario ref '" + ref + "': " + why +
                               " (expected generated:seed=<K>, or "
                               "generated:seed=<K>..<M> on a campaign workcells axis)");
}

/// Strict non-negative integer parse; the whole token must be digits.
std::uint64_t parse_seed_token(const std::string& ref, std::string_view token) {
    std::uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc{} || ptr != end) {
        bad_ref(ref, "seed '" + std::string(token) + "' is not a non-negative integer");
    }
    return value;
}

/// The "seed=..." payload after the prefix, validated to exist.
std::string_view ref_payload(const std::string& ref) {
    std::string_view body(ref);
    body.remove_prefix(kGeneratedRefPrefix.size());
    if (body.substr(0, kSeedKey.size()) != kSeedKey) {
        bad_ref(ref, "missing 'seed=' after 'generated:'");
    }
    return body.substr(kSeedKey.size());
}

// --- distribution helpers -------------------------------------------------

double round_to(double value, int digits) {
    const double scale = std::pow(10.0, digits);
    return std::round(value * scale) / scale;
}

/// Multiplicative jitter around a paper-calibrated default duration.
double jitter(support::Rng& rng, double nominal) {
    return round_to(nominal * rng.uniform(0.7, 1.4), 2);
}

/// Draw in [0, hi) but snap the low tail to exactly zero, so the family
/// mixes clean instruments with faulty ones instead of being uniformly
/// slightly broken.
double prob_or_zero(support::Rng& rng, double hi, double floor, int digits) {
    const double p = round_to(rng.uniform(0.0, hi), digits);
    return p < floor ? 0.0 : p;
}

// --- difficulty probe -----------------------------------------------------

constexpr int kProbeSamples = 16;
constexpr int kProbeBatch = 8;
constexpr std::uint64_t kProbeSeed = 0x5D1FF5EEDULL;

double probe_difficulty(std::uint64_t seed) {
    ColorPickerConfig config = difficulty_probe_config(seed);
    try {
        ColorPickerApp app(std::move(config));
        return app.run().best_score;
    } catch (const support::Error&) {
        return kUnrunnableDifficulty;
    }
}

}  // namespace

bool is_generated_ref(const std::string& ref) {
    return std::string_view(ref).substr(0, kGeneratedRefPrefix.size()) ==
           kGeneratedRefPrefix;
}

std::uint64_t parse_generated_ref(const std::string& ref) {
    if (!is_generated_ref(ref)) {
        bad_ref(ref, "missing 'generated:' prefix");
    }
    const std::string_view payload = ref_payload(ref);
    if (payload.find("..") != std::string_view::npos) {
        bad_ref(ref, "seed ranges are only valid on a campaign's workcells axis");
    }
    return parse_seed_token(ref, payload);
}

std::vector<std::string> expand_generated_refs(const std::string& ref) {
    if (!is_generated_ref(ref)) {
        return {ref};
    }
    const std::string_view payload = ref_payload(ref);
    const std::size_t dots = payload.find("..");
    if (dots == std::string_view::npos) {
        (void)parse_seed_token(ref, payload);
        return {ref};
    }
    const std::uint64_t lo = parse_seed_token(ref, payload.substr(0, dots));
    const std::uint64_t hi = parse_seed_token(ref, payload.substr(dots + 2));
    if (lo > hi) {
        bad_ref(ref, "empty seed range (" + std::to_string(lo) + " > " +
                         std::to_string(hi) + ")");
    }
    // hi - lo + 1 wraps to 0 for the whole seed space, and k <= hi holds
    // for every k at hi = 2^64 - 1: check the span and loop on a count.
    if (hi - lo >= kMaxRangeSpan) {
        bad_ref(ref, "range spans more than the limit of " + std::to_string(kMaxRangeSpan) +
                         " scenarios");
    }
    const std::uint64_t count = hi - lo + 1;
    std::vector<std::string> refs;
    refs.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        refs.push_back(std::string(kGeneratedRefPrefix) + std::string(kSeedKey) +
                       std::to_string(lo + i));
    }
    return refs;
}

WorkcellSpec generate_scenario(std::uint64_t seed) {
    // Mixed so neighboring seeds land on decorrelated streams; the draw
    // *order* below is part of the reproducibility contract — appending
    // new draws at the end keeps old seeds' earlier fields stable,
    // reordering does not.
    support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EEDC0DEULL);

    WorkcellSpec spec;
    spec.name = "gen_" + std::to_string(seed);
    spec.description =
        "procedurally generated workcell (generated:seed=" + std::to_string(seed) + ")";

    // Plate format: mostly the paper's 96-well deck, with denser 384- and
    // 1536-well formats to stress the vision pipeline's scale handling.
    const double format = rng.uniform();
    int rows = 8;
    int cols = 12;
    if (format >= 0.90) {
        rows = 32;
        cols = 48;
    } else if (format >= 0.65) {
        rows = 16;
        cols = 24;
    }
    spec.plate_rows = rows;
    spec.plate_cols = cols;

    // Global pace: 0.4 models next-generation hardware, 1.8 a slow cell.
    spec.timing_scale = round_to(rng.uniform(0.4, 1.8), 3);
    spec.manual_handling = support::Duration::seconds(round_to(rng.uniform(8.0, 40.0), 2));

    // Roster: camera and ot2 are mandatory; each handling device is
    // independently present or run by hand. The first draw is one nothing
    // reads: it keeps the stream, so every generated scenario keeps its
    // values.
    (void)rng.uniform_int(1, 3);
    const bool has_sciclops = rng.bernoulli(0.80);
    const bool has_pf400 = rng.bernoulli(0.85);
    const bool has_barty = rng.bernoulli(0.75);

    if (has_sciclops) {
        DeviceSpec d;
        d.kind = DeviceKind::Sciclops;
        d.options.set("towers", static_cast<std::int64_t>(rng.uniform_int(2, 4)));
        d.options.set("plates_per_tower",
                      static_cast<std::int64_t>(rng.uniform_int(10, 20)));
        d.options.set("get_plate_s", jitter(rng, 20.0));
        spec.devices.push_back(std::move(d));
    }
    if (has_pf400) {
        DeviceSpec d;
        d.kind = DeviceKind::Pf400;
        d.options.set("transfer_s", jitter(rng, 42.65));
        spec.devices.push_back(std::move(d));
    }
    {
        DeviceSpec d;
        d.kind = DeviceKind::Ot2;
        d.options.set("protocol_overhead_s", jitter(rng, 110.3));
        d.options.set("per_well_s", jitter(rng, 35.0));
        d.options.set("dispense_cv", round_to(rng.uniform(0.005, 0.05), 4));
        const double clog = prob_or_zero(rng, 0.12, 0.02, 3);
        if (clog > 0.0) {
            d.options.set("clog_prob", clog);
        }
        const double dye_drift = round_to(rng.uniform(0.0, 8e-4), 6);
        if (dye_drift >= 1e-4) {
            d.options.set("dye_drift_per_well", dye_drift);
        }
        spec.devices.push_back(std::move(d));
    }
    if (has_barty) {
        DeviceSpec d;
        d.kind = DeviceKind::Barty;
        d.options.set("fill_s", jitter(rng, 45.0));
        d.options.set("refill_s", jitter(rng, 65.0));
        d.options.set("prime_s", jitter(rng, 30.0));
        spec.devices.push_back(std::move(d));
    }
    {
        DeviceSpec d;
        d.kind = DeviceKind::Camera;
        d.options.set("capture_s", jitter(rng, 1.5));
        const double glitch = prob_or_zero(rng, 0.08, 0.01, 3);
        if (glitch > 0.0) {
            d.options.set("glitch_prob", glitch);
        }
        const double sensor_drift = round_to(rng.uniform(0.0, 2e-3), 6);
        if (sensor_drift >= 2e-4) {
            d.options.set("drift_per_frame", sensor_drift);
        }
        // A draw nothing reads: it keeps the stream, so the fault profile
        // below, and with it every generated scenario, keeps its values.
        (void)rng.uniform_int(6, 12);
        spec.devices.push_back(std::move(d));
    }

    wei::FaultConfig faults;
    faults.command_rejection_prob = prob_or_zero(rng, 0.05, 0.005, 3);
    faults.rejection_latency = support::Duration::seconds(round_to(rng.uniform(2.0, 10.0), 2));
    if (rng.bernoulli(0.4)) {
        faults.per_module["ot2"] = round_to(rng.uniform(0.02, 0.10), 3);
    }
    spec.faults = std::move(faults);

    // A generator bug should fail at the draw, not when a campaign cell
    // eventually tries to mount the workcell.
    validate_workcell_spec(spec);
    return spec;
}

ColorPickerConfig difficulty_probe_config(std::uint64_t seed) {
    ColorPickerConfig config;
    config.target = color::Rgb8{201, 101, 51};
    config.total_samples = kProbeSamples;
    config.batch_size = kProbeBatch;
    config.solver = "anneal";
    config.objective = Objective::RgbEuclidean;
    config.seed = kProbeSeed;
    config.publish = false;
    return apply_workcell_spec(std::move(config), generate_scenario(seed));
}

double generated_difficulty(std::uint64_t seed) {
    static support::Mutex mutex;
    static std::map<std::uint64_t, double> cache;
    {
        const support::MutexLock lock(mutex);
        const auto it = cache.find(seed);
        if (it != cache.end()) {
            return it->second;
        }
    }
    // Probe outside the lock: concurrent report writers for distinct
    // seeds should not serialize on one mutex. A duplicate probe of the
    // same seed is deterministic, so last-write-wins is harmless.
    const double score = probe_difficulty(seed);
    const support::MutexLock lock(mutex);
    return cache.emplace(seed, score).first->second;
}

}  // namespace sdl::core
