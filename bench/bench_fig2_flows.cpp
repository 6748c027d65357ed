// Reproduces the structure of Figures 1 and 2: the workcell inventory and
// the color-picker application's four WEI workflows, plus the per-workflow
// timing files (§2.3) produced by an actual run.
#include <cstdio>
#include <filesystem>
#include <iterator>

#include "core/presets.hpp"
#include "core/workflows.hpp"
#include "data/artifacts.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

using namespace sdl;

namespace {

struct RplModule {
    const char* name;
    const char* model;
};

// The RPL workcell (§2.2): ten modules, of which the color picker uses
// the first five.
constexpr RplModule kRplModules[] = {
    {"sciclops", "Hudson SciClops"},
    {"pf400", "Precise Automation PF400"},
    {"ot2", "Opentrons OT-2"},
    {"barty", "RPL Barty"},
    {"camera", "Logitech webcam + ring light"},
    {"ot2_pcr_alpha", "Opentrons OT-2"},  // PCR workflows
    {"biometra", "Biometra TRobot"},      // thermocycler
    {"sealer", "A4S Sealer"},
    {"peeler", "Brooks XPeel"},
    {"hidex", "Hidex Sense"},  // plate reader for cell-growth analysis
};

}  // namespace

int main() {
    support::set_log_level(support::LogLevel::Error);
    std::printf("================================================================\n");
    std::printf("Figures 1 & 2 — workcell map and application flow structure\n");
    std::printf("================================================================\n");

    // Figure 1: the workcell.
    support::TextTable workcell({"Module", "Model"});
    for (const RplModule& m : kRplModules) workcell.add_row({m.name, m.model});
    std::printf("\n[Figure 1] Workcell: rpl_workcell\n%s", workcell.str().c_str());
    std::printf("The color picker targets five of the %zu modules: sciclops, pf400, "
                "ot2, barty, camera.\n",
                std::size(kRplModules));

    // Figure 2: the four WEI flows.
    std::printf("\n[Figure 2] Color-picker workflows:\n");
    for (const wei::Workflow* wf : core::all_workflows()) {
        std::printf("\n%s:\n", wf->name().c_str());
        for (const auto& step : wf->steps()) {
            std::printf("  %-18s -> %s.%s %s\n", step.name.c_str(), step.module.c_str(),
                        step.action.c_str(),
                        step.args.size() > 0 ? step.args.dump().c_str() : "");
        }
    }
    std::printf("\nGraphviz DOT of cp_wf_mixcolor:\n%s", core::wf_mixcolor().to_dot().c_str());

    // §2.3: run a small experiment and emit the per-workflow timing files.
    core::ColorPickerApp app(core::preset_quickstart(3));
    (void)app.run();
    const std::string dir = "fig2_workflow_artifacts";
    std::filesystem::remove_all(dir);
    const std::size_t files = data::write_run_artifacts(app.event_log(), dir);
    std::printf("\nPer-workflow timing files (one JSON per workflow run): %zu files "
                "written to %s/\n",
                files, dir.c_str());
    std::printf("Code progression: cp_wf_newplate -> [cp_wf_mixcolor -> compute -> "
                "publish -> solver]* -> cp_wf_trashplate\n");
    return 0;
}
