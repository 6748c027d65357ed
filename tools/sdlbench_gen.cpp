// sdlbench_gen — emits packs of procedurally generated workcell
// scenarios (core/scenario_gen.hpp) with their difficulty scores.
//
//   sdlbench_gen --seeds K..M [out_dir]
//   sdlbench_gen --seed K     [out_dir]
//
// For each seed the materialized spec is written to <out_dir>/gen_<K>.yaml
// (bitwise identical to the workcell.yaml a run of that scenario saves),
// and <out_dir>/pack.json indexes the pack: per scenario the ref, plate
// format, roster size, and the difficulty score (regret of the anneal
// baseline under the fixed probe budget).
// Same seeds => byte-identical pack, so packs can be regenerated
// anywhere instead of being committed.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/scenario_gen.hpp"
#include "core/workcell_spec.hpp"
#include "support/atomic_io.hpp"
#include "support/common.hpp"

namespace fs = std::filesystem;
using namespace sdl;
namespace json = support::json;

namespace {

void usage(std::FILE* to) {
    std::fputs(
        "usage: sdlbench_gen --seeds K..M [out_dir]\n"
        "       sdlbench_gen --seed K    [out_dir]\n"
        "\n"
        "Generates the workcell scenarios for the given seed range (the\n"
        "same specs `--scenario generated:seed=K` resolves), writes one\n"
        "gen_<K>.yaml per seed plus a pack.json index to out_dir\n"
        "(default: gen_pack/), and scores each scenario's difficulty —\n"
        "the best objective score the anneal baseline solver reaches on\n"
        "that workcell under a fixed 16-sample probe budget (0 = exact\n"
        "match; higher = harder workcell).\n",
        to);
}

}  // namespace

int main(int argc, char** argv) {
    std::string seeds_arg;
    std::string out_dir = "gen_pack";
    bool have_out = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        }
        if ((arg == "--seeds" || arg == "--seed") && i + 1 < argc) {
            seeds_arg = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "sdlbench_gen: unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        } else if (!have_out) {
            out_dir = arg;
            have_out = true;
        } else {
            std::fprintf(stderr, "sdlbench_gen: unexpected argument '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (seeds_arg.empty()) {
        usage(stderr);
        return 2;
    }

    try {
        // Reuse the ref grammar so CLI errors match the campaign axis.
        const std::vector<std::string> refs =
            core::expand_generated_refs("generated:seed=" + seeds_arg);

        fs::create_directories(out_dir);
        json::Value scenarios = json::Value::array();
        std::printf("%-10s %-8s %-8s %s\n", "name", "plate", "devices", "difficulty");
        for (const std::string& ref : refs) {
            const std::uint64_t seed = core::parse_generated_ref(ref);
            const core::WorkcellSpec spec = core::generate_scenario(seed);
            const std::string yaml = core::workcell_spec_to_yaml(spec);
            support::atomic_write((fs::path(out_dir) / (spec.name + ".yaml")).string(),
                                  yaml);

            const auto device_count = static_cast<int>(spec.devices.size());
            const std::string plate = std::to_string(spec.plate_rows.value_or(8)) + "x" +
                                      std::to_string(spec.plate_cols.value_or(12));

            json::Value entry = json::Value::object();
            entry.set("name", spec.name);
            entry.set("seed", static_cast<std::int64_t>(seed));
            entry.set("ref", ref);
            entry.set("plate", plate);
            entry.set("devices", device_count);
            const double score = core::generated_difficulty(seed);
            entry.set("difficulty", score);
            // sdlbench-lint: allow(printf-float): terminal listing; --json output goes through the json layer
            std::printf("%-10s %-8s %-8d %.3f\n", spec.name.c_str(), plate.c_str(),
                        device_count, score);
            scenarios.push_back(std::move(entry));
        }

        json::Value pack = json::Value::object();
        pack.set("schema", "sdlbench.scenario_pack.v1");
        pack.set("seeds", seeds_arg);
        pack.set("scenarios", std::move(scenarios));
        support::atomic_write((fs::path(out_dir) / "pack.json").string(),
                              pack.pretty() + "\n");
        std::printf("pack: %s (%zu scenarios)\n",
                    (fs::path(out_dir) / "pack.json").string().c_str(), refs.size());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sdlbench_gen: %s\n", e.what());
        return 1;
    }
}
