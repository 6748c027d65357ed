// sdlbench_fleet — work-stealing multi-process campaign orchestrator.
//
//   sdlbench_fleet --campaign <campaign.yaml> [output_dir] [--workers N]
//
// Runs one campaign grid across N worker processes (re-exec'd copies of
// this binary in --worker mode) with dynamic work-stealing leases: the
// coordinator expands the grid once, orders cells longest-expected-first
// (campaign/cost_model.hpp), and leases slices of that order to workers
// over a line protocol on their stdin/stdout pipes.
// Leases shrink adaptively as the queue drains, so fast workers steal
// what slow ones would otherwise strand; a worker that dies (pipe EOF) or
// hangs (heartbeat timeout) is SIGKILLed and its incomplete cells are
// re-leased, while everything it journaled durably — acknowledged or not
// — is salvaged, never recomputed. Worker journals are tailed as acks
// arrive and merged continuously, so campaign.json/campaign.csv in
// output_dir are live during the run; the final report is written from
// index-sorted results and is byte-identical to a single-process
// uninterrupted `sdlbench_run --campaign` run, even when workers were
// killed mid-campaign. See docs/ARCHITECTURE.md § Fleet execution.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"

using namespace sdl;

namespace {

#ifndef SDLBENCH_VERSION
#define SDLBENCH_VERSION "unknown"
#endif
constexpr const char* kVersion = SDLBENCH_VERSION;

void print_usage(std::FILE* stream) {
    std::fprintf(
        stream,
        "sdlbench_fleet — work-stealing multi-process campaign orchestrator\n"
        "\n"
        "usage: sdlbench_fleet --campaign <campaign.yaml> [output_dir] [options]\n"
        "\n"
        "options:\n"
        "  -h, --help               show this help and exit\n"
        "  --version                print version and exit\n"
        "  --campaign <file>        the campaign grid to run (required)\n"
        "  --workers <n>            worker processes (default 3, capped at the\n"
        "                           cell count)\n"
        "  --worker-threads <n>     in-process pool size per worker, 0..%zu (sets\n"
        "                           SDLBENCH_WORKERS in the worker's env);\n"
        "                           default (0): hardware threads / workers\n"
        "                           started (at most one per open cell)\n"
        "  --resume                 restart a killed coordinator from output_dir's\n"
        "                           coordinator.jsonl ledger + worker journals\n"
        "  --worker-failpoints <w|*>:<spec>\n"
        "                           inject <spec> into worker slot w (generation\n"
        "                           0 only; w below the worker count) or '*'\n"
        "                           (every incarnation); repeatable\n"
        "\n"
        "Writes campaign.json, campaign.csv and a fused whole-grid cells.jsonl\n"
        "to [output_dir] (default sdlbench_fleet_out); per-worker journals\n"
        "remain under output_dir/workers/wN/ (respawns under wNrG/). The final\n"
        "report is byte-identical to a single-process `sdlbench_run --campaign`\n"
        "run, including when workers are killed mid-campaign or the coordinator\n"
        "itself is killed and resumed. Exits 6 if any cell was quarantined\n"
        "(docs/ROBUSTNESS.md has the heartbeat, respawn and quarantine policy).\n"
        "SDLBENCH_FAILPOINTS arms coordinator-side failpoints (docs/ROBUSTNESS.md\n"
        "has the grammar and site catalog).\n",
        support::kMaxPoolSize);
}

bool parse_size(const std::string& text, std::size_t& into) {
    if (text.empty() || text.size() > 9) return false;
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    into = value;
    return true;
}

int worker_main(const std::vector<std::string>& args) {
    campaign::FleetWorkerOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto value = [&]() -> std::string {
            return i + 1 < args.size() ? args[++i] : std::string();
        };
        if (args[i] == "--worker") continue;
        if (args[i] == "--campaign") {
            options.campaign_path = value();
        } else if (args[i] == "--dir") {
            options.dir = value();
        } else if (args[i] == "--expect-digest") {
            options.expect_digest = value();
        } else {
            std::fprintf(stderr, "fleet worker: unknown flag '%s'\n", args[i].c_str());
            return 2;
        }
    }
    if (options.campaign_path.empty() || options.dir.empty()) {
        std::fprintf(stderr, "fleet worker: --campaign and --dir are required\n");
        return 2;
    }
    try {
        return campaign::run_fleet_worker(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleet worker: %s\n", e.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    // Arm from SDLBENCH_FAILPOINTS first: workers get their schedules
    // this way (the coordinator always sets the variable for them), and
    // so does the coordinator itself.
    try {
        support::failpoint::arm_from_env();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: SDLBENCH_FAILPOINTS: %s\n", e.what());
        return 2;
    }
    for (const auto& a : args) {
        if (a == "--worker") return worker_main(args);
    }
    for (const auto& a : args) {
        if (a == "-h" || a == "--help") {
            print_usage(stdout);
            return 0;
        }
        if (a == "--version") {
            std::printf("sdlbench_fleet %s\n", kVersion);
            return 0;
        }
    }

    campaign::FleetOptions options;
    options.worker_exe = argv[0];  // workers are re-exec'd copies of this binary
    std::string campaign_path;
    std::string out_dir = "sdlbench_fleet_out";
    bool have_out_dir = false;
    for (auto it = args.begin(); it != args.end();) {
        const auto take_value = [&](const char* flag, std::string& into) {
            if (std::next(it) == args.end()) {
                std::fprintf(stderr, "error: %s requires a value\n", flag);
                return false;
            }
            into = *std::next(it);
            it = args.erase(it, std::next(it, 2));
            return true;
        };
        std::string text;
        if (*it == "--campaign") {
            if (!take_value("--campaign", campaign_path)) return 2;
        } else if (*it == "--workers") {
            if (!take_value("--workers", text)) return 2;
            if (!parse_size(text, options.workers) || options.workers == 0) {
                std::fprintf(stderr, "error: --workers needs a positive integer\n");
                return 2;
            }
        } else if (*it == "--worker-threads") {
            if (!take_value("--worker-threads", text)) return 2;
            // The worker's pool_size_from_env refuses anything larger.
            if (!parse_size(text, options.worker_threads) ||
                options.worker_threads > support::kMaxPoolSize) {
                std::fprintf(stderr,
                             "error: --worker-threads needs an integer from 0 to %zu\n",
                             support::kMaxPoolSize);
                return 2;
            }
        } else if (*it == "--worker-failpoints") {
            if (!take_value("--worker-failpoints", text)) return 2;
            const std::size_t colon = text.find(':');
            campaign::FleetOptions::WorkerFailpoint wf;
            std::size_t slot = 0;
            if (colon == std::string::npos || colon + 1 == text.size()) {
                std::fprintf(stderr,
                             "error: --worker-failpoints needs <w|*>:<spec>\n");
                return 2;
            }
            if (text.substr(0, colon) == "*") {
                wf.slot = -1;
            } else if (parse_size(text.substr(0, colon), slot)) {
                wf.slot = static_cast<int>(slot);
            } else {
                std::fprintf(stderr,
                             "error: --worker-failpoints needs <w|*>:<spec>\n");
                return 2;
            }
            wf.spec = text.substr(colon + 1);
            options.worker_failpoints.push_back(std::move(wf));
        } else if (*it == "--resume") {
            options.resume = true;
            it = args.erase(it);
        } else if (!it->empty() && (*it)[0] == '-') {
            std::fprintf(stderr, "error: unknown flag '%s'\n", it->c_str());
            return 2;
        } else {
            if (have_out_dir) {
                print_usage(stderr);
                return 2;
            }
            out_dir = *it;
            have_out_dir = true;
            ++it;
        }
    }
    if (campaign_path.empty()) {
        print_usage(stderr);
        return 2;
    }

    support::set_log_level(support::LogLevel::Warn);
    try {
        const campaign::FleetResult fleet = campaign::run_fleet(campaign_path, out_dir,
                                                                options);
        const campaign::FleetSummary& s = fleet.summary;
        // sdlbench-lint: allow(printf-float): stdout summary line, never serialized into an artifact
        std::printf("\nFleet done: %zu cells, makespan %.1fs, busy %.1fs, "
                    // sdlbench-lint: allow(printf-float): continuation of the same terminal summary line
                    "efficiency %.0f%% (%zu workers",
                    s.cells, s.makespan_s, s.busy_s, s.efficiency * 100.0,
                    s.workers_started);
        if (s.workers_lost > 0) {
            std::printf(", %zu lost: %zu cell(s) salvaged from journals, %zu "
                        "re-leased",
                        s.workers_lost, s.cells_salvaged, s.cells_releases);
        }
        if (s.workers_respawned > 0) {
            std::printf(", %zu respawned", s.workers_respawned);
        }
        std::printf(")\n");
        std::printf("Wrote %s/{campaign.json, campaign.csv, cells.jsonl}.\n",
                    out_dir.c_str());
        if (!fleet.quarantined.empty()) {
            std::fprintf(stderr,
                         "warning: %zu cell(s) quarantined after repeated worker "
                         "crashes — see the \"quarantined\" list in campaign.json\n",
                         fleet.quarantined.size());
            return 6;
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
