// loopbench — the C++ half of the closed-loop benchmark (run.py drives it).
//
//   loopbench loop  --workload <table1_loop|gp_long> --seed S --seconds T
//       Untraced: times ColorPickerApp construction, then construction +
//       run() on the reference seeds, the first reference again (its
//       outcome must repeat bit for bit), and seeds derived from S until T
//       seconds are used.
//   loopbench trace --workload <table1_loop|gp_long> --seed S
//       Per config: one untraced ColorPickerApp run, then the traced twin
//       (twin_loop.hpp); outcomes must match bit for bit.
//   loopbench fleet-setup --campaign <yaml> --reps M
//       Times the coordinator's pre-lease work (spec load + expand_grid)
//       and prints the cells' schedule order.
//   loopbench fleet-twin --campaign <yaml> --journal <cells.jsonl>
//       Runs the traced twin on every cell and matches each outcome
//       against the fleet's own journal record.
//
// Each mode prints one JSON document on stdout; run.py turns it into
// metrics. Exit code 0 means the document was written, not that every
// check passed: checks are reported in its "errors" list.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cost_model.hpp"
#include "core/colorpicker.hpp"
#include "core/presets.hpp"
#include "support/json.hpp"
#include "twin_loop.hpp"

using namespace sdl;
namespace json = support::json;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// The loop workloads' experiment configs (README.md says why these).
core::ColorPickerConfig workload_config(const std::string& workload, std::uint64_t seed) {
    if (workload == "table1_loop") return core::preset_table1_96well(seed);
    if (workload == "gp_long") {
        core::ColorPickerConfig config = core::preset_table1_96well(seed);
        config.solver = "bayesian";
        config.batch_size = 24;
        config.total_samples = 576;  // six 96-well plates
        // A dark target the dyes cannot match exactly: at N=576 the GP
        // matches mid-gray to within 0-1, which leaves nothing to compare.
        config.target = {30, 30, 30};
        return config;
    }
    throw std::runtime_error("unknown loop workload '" + workload + "'");
}

/// Seeds every loop run measures besides its own: the best score is the
/// mean over these, so it is fixed per build (a seed-to-seed spread of
/// the final best would swamp any regression bound).
constexpr std::uint64_t kReferenceSeeds[] = {1, 2};

/// ColorPickerApp constructions timed before every untraced rep.
constexpr int kSetupProbes = 40;

std::uint64_t config_seed(std::uint64_t bench_seed, std::size_t index) {
    return bench_seed * 1000 + index + 1;
}

/// The journal's lossless outcome form (every sample with its ratios,
/// best score, Table-1 metrics, counters): equal text means equal bits.
std::string outcome_text(const core::ColorPickerConfig& config,
                         const core::ExperimentOutcome& outcome) {
    campaign::CellResult result;
    result.cell.config = config;
    result.outcome = outcome;
    return campaign::cell_record_to_json(result).at("outcome").dump();
}

json::Value table1_json(const metrics::SdlMetrics& m) {
    json::Value doc = json::Value::object();
    doc.set("twh_s", m.time_without_humans.to_seconds());
    doc.set("ccwh", static_cast<std::int64_t>(m.commands_completed));
    doc.set("time_per_color_s", m.time_per_color.to_seconds());
    return doc;
}

json::Value spans_json(const std::vector<perfbench::Span>& spans) {
    json::Value out = json::Value::array();
    for (const perfbench::Span& s : spans) {
        json::Value row = json::Value::array();
        row.push_back(s.name);
        row.push_back(s.parent);
        row.push_back(static_cast<std::int64_t>(s.start_ns));
        row.push_back(static_cast<std::int64_t>(s.end_ns));
        out.push_back(std::move(row));
    }
    return out;
}

json::Value counters_json(const perfbench::TwinCounters& c) {
    json::Value doc = json::Value::object();
    doc.set("asks", c.asks);
    doc.set("tells", c.tells);
    doc.set("frames", c.frames);
    doc.set("megapixels", c.megapixels);
    doc.set("roi_hits", c.roi_hits);
    doc.set("full_scans", c.full_scans);
    doc.set("retakes", c.retakes);
    doc.set("commands", c.commands);
    doc.set("rejections", c.rejections);
    doc.set("interventions", c.interventions);
    doc.set("publishes", c.publishes);
    return doc;
}

/// One twin run plus its CPU time, as a JSON entry.
json::Value traced_entry(const core::ColorPickerConfig& config,
                         const std::string& expected_outcome, json::Value& errors) {
    perfbench::Tracer tracer;
    const double cpu0 = cpu_seconds();
    const perfbench::TwinRun twin = perfbench::run_twin(config, tracer);
    const double cpu1 = cpu_seconds();
    const bool match = outcome_text(config, twin.outcome) == expected_outcome;
    if (!match) {
        errors.push_back("twin outcome differs from the program's for seed " +
                         std::to_string(config.seed));
    }
    json::Value entry = json::Value::object();
    entry.set("seed", static_cast<std::int64_t>(config.seed));
    entry.set("match", match);
    entry.set("cpu_s", cpu1 - cpu0);
    entry.set("spans", spans_json(tracer.spans()));
    entry.set("counters", counters_json(twin.counters));
    return entry;
}

struct Args {
    std::string mode;
    std::string workload;
    std::string campaign;
    std::string journal;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int configs = 0;
    int reps = 0;
};

Args parse_args(int argc, char** argv) {
    Args args;
    if (argc < 2) throw std::runtime_error("usage: loopbench <mode> [options]");
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--campaign") {
            args.campaign = value;
        } else if (flag == "--journal") {
            args.journal = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--configs") {
            args.configs = std::stoi(value);
        } else if (flag == "--reps") {
            args.reps = std::stoi(value);
        } else {
            throw std::runtime_error("unknown flag " + flag);
        }
    }
    return args;
}

json::Value run_loop(const Args& args) {
    // Setup: ColorPickerApp construction (runtime, devices, solver). It
    // takes microseconds, so a batch of constructions goes before every
    // rep: the median then samples the host's state across the whole run.
    const core::ColorPickerConfig probe_config =
        workload_config(args.workload, kReferenceSeeds[0]);
    json::Value setup = json::Value::array();
    const auto probe_setup = [&] {
        for (int i = 0; i < kSetupProbes; ++i) {
            const auto t0 = Clock::now();
            const core::ColorPickerApp app(probe_config);
            setup.push_back(seconds_between(t0, Clock::now()));
        }
    };

    json::Value errors = json::Value::array();
    json::Value reps = json::Value::array();
    std::map<std::uint64_t, std::string> outcomes;  // seed -> outcome_text
    // The reference seeds, the first one again (the repeat check), then
    // seeds derived from the benchmark seed while the time budget allows
    // another average-length rep.
    const std::size_t min_reps = std::size(kReferenceSeeds) + 1;
    const std::size_t max_reps = 64;
    const auto start = Clock::now();
    for (std::size_t rep = 0; rep < max_reps; ++rep) {
        const double used = seconds_between(start, Clock::now());
        if (rep >= min_reps && used + used / static_cast<double>(rep) > args.seconds) break;
        const bool reference = rep < min_reps;
        const std::uint64_t seed =
            reference ? kReferenceSeeds[rep % std::size(kReferenceSeeds)]
                      : config_seed(args.seed, rep - min_reps);
        const core::ColorPickerConfig config = workload_config(args.workload, seed);
        probe_setup();
        const auto t0 = Clock::now();
        core::ColorPickerApp app(config);
        const auto t1 = Clock::now();
        const core::ExperimentOutcome outcome = app.run();
        const auto t2 = Clock::now();

        bool ok = true;
        const std::string text = outcome_text(config, outcome);
        const auto [it, fresh] = outcomes.emplace(seed, text);
        if (!fresh && it->second != text) {
            ok = false;
            errors.push_back("outcome changed between two runs of seed " +
                             std::to_string(seed));
        }
        if (static_cast<int>(outcome.samples.size()) != config.total_samples) {
            ok = false;
            errors.push_back("seed " + std::to_string(seed) + " yielded " +
                             std::to_string(outcome.samples.size()) + " samples, expected " +
                             std::to_string(config.total_samples));
        }
        json::Value entry = json::Value::object();
        entry.set("seed", static_cast<std::int64_t>(seed));
        entry.set("reference", reference);
        entry.set("ok", ok);
        entry.set("run_s", seconds_between(t1, t2));
        entry.set("makespan_s", seconds_between(t0, t2));
        entry.set("samples", static_cast<std::int64_t>(outcome.samples.size()));
        entry.set("best_score", outcome.best_score);
        entry.set("table1", table1_json(outcome.metrics));
        reps.push_back(std::move(entry));
    }
    json::Value doc = json::Value::object();
    doc.set("setup_s", std::move(setup));
    doc.set("reps", std::move(reps));
    doc.set("errors", std::move(errors));
    return doc;
}

json::Value run_trace(const Args& args) {
    json::Value errors = json::Value::array();
    json::Value entries = json::Value::array();
    const int n_configs = std::max(1, args.configs);
    // Untimed warm-up, so that neither side of the first pair pays for
    // first-touch page faults and lazy initialization.
    (void)core::ColorPickerApp(workload_config(args.workload, config_seed(args.seed, 0))).run();
    for (int i = 0; i < n_configs; ++i) {
        const core::ColorPickerConfig config =
            workload_config(args.workload, config_seed(args.seed, static_cast<std::size_t>(i)));
        const auto t0 = Clock::now();
        core::ColorPickerApp app(config);
        const core::ExperimentOutcome outcome = app.run();
        const double untraced_s = seconds_between(t0, Clock::now());
        json::Value entry = traced_entry(config, outcome_text(config, outcome), errors);
        entry.set("untraced_s", untraced_s);
        entries.push_back(std::move(entry));
    }
    json::Value doc = json::Value::object();
    doc.set("configs", std::move(entries));
    doc.set("errors", std::move(errors));
    return doc;
}

json::Value run_fleet_setup(const Args& args) {
    json::Value times = json::Value::array();
    std::vector<campaign::CampaignCell> grid;
    for (int i = 0; i < std::max(1, args.reps); ++i) {
        const auto t0 = Clock::now();
        const campaign::CampaignSpec spec = campaign::campaign_from_file(args.campaign);
        grid = campaign::expand_grid(spec);
        times.push_back(seconds_between(t0, Clock::now()));
    }
    json::Value order = json::Value::array();
    for (const std::size_t cell : campaign::schedule_order(grid)) {
        order.push_back(static_cast<std::int64_t>(cell));
    }
    json::Value doc = json::Value::object();
    doc.set("setup_s", std::move(times));
    doc.set("schedule_order", std::move(order));
    return doc;
}

json::Value run_fleet_twin(const Args& args) {
    json::Value errors = json::Value::array();
    const auto t0 = Clock::now();
    const campaign::CampaignSpec spec = campaign::campaign_from_file(args.campaign);
    const std::vector<campaign::CampaignCell> grid = campaign::expand_grid(spec);
    const double setup_s = seconds_between(t0, Clock::now());

    // The fleet's fused journal: header line, then one record per cell.
    std::map<std::size_t, std::string> recorded;
    std::ifstream in(args.journal);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            continue;
        }
        if (line.empty()) continue;
        const json::Value record = json::parse(line);
        recorded[static_cast<std::size_t>(record.at("cell_index").as_int())] =
            record.at("outcome").dump();
    }

    json::Value entries = json::Value::array();
    for (const campaign::CampaignCell& cell : grid) {
        const auto found = recorded.find(cell.index);
        if (found == recorded.end()) {
            errors.push_back("cell " + std::to_string(cell.index) + " missing from journal");
            continue;
        }
        entries.push_back(traced_entry(cell.config, found->second, errors));
    }
    json::Value doc = json::Value::object();
    doc.set("setup_s", setup_s);
    doc.set("configs", std::move(entries));
    doc.set("errors", std::move(errors));
    return doc;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parse_args(argc, argv);
        json::Value doc;
        if (args.mode == "loop") {
            doc = run_loop(args);
        } else if (args.mode == "trace") {
            doc = run_trace(args);
        } else if (args.mode == "fleet-setup") {
            doc = run_fleet_setup(args);
        } else if (args.mode == "fleet-twin") {
            doc = run_fleet_twin(args);
        } else {
            throw std::runtime_error("unknown mode '" + args.mode + "'");
        }
        std::printf("%s\n", doc.dump().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "loopbench: %s\n", e.what());
        return 1;
    }
}
