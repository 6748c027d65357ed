// validate_specs — parse-checks every YAML spec so shipped files can't
// silently rot.
//
//   validate_specs <file-or-directory>...
//
// Every .yaml/.yml under the given paths is classified by its marker
// section and run through the corresponding loader (which enforces the
// full schema: unknown keys, unknown devices, duplicate names, bad
// values all throw):
//   campaign:  -> campaign_from_file + expand_grid (also resolves every
//                 grid.workcells scenario reference and generates ids)
//   devices:   -> core::workcell_spec_from_yaml
//   otherwise  -> core::config_from_file (experiment file; resolves a
//                 workcell.scenario reference too)
//
// Exit code 0 when every file parses; 1 with one line per failure
// otherwise. CI runs it over examples/campaigns/ and examples/scenarios/
// (see .github/workflows/ci.yml), and a ctest entry does the same
// locally.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign_io.hpp"
#include "core/config_io.hpp"
#include "core/workcell_spec.hpp"
#include "support/atomic_io.hpp"
#include "support/yaml.hpp"

namespace fs = std::filesystem;
using namespace sdl;

namespace {

/// Returns the kind of spec validated ("campaign", "workcell",
/// "experiment"); throws on any schema violation.
std::string validate_one(const fs::path& path) {
    const std::string text = support::read_file(path.string(), "spec file");
    const support::json::Value doc = support::yaml::parse(text);
    if (doc.is_object() && doc.contains("campaign")) {
        // The file loader rebases relative grid.workcells spec paths;
        // expanding the grid then resolves every scenario reference and
        // generates the experiment ids, so a renamed scenario file or a
        // typo'd registry name fails here, not at run time.
        (void)campaign::expand_grid(campaign::campaign_from_file(path.string()));
        return "campaign";
    }
    if (doc.is_object() && doc.contains("devices")) {
        (void)core::workcell_spec_from_yaml(text);
        return "workcell";
    }
    (void)core::config_from_file(path.string());
    return "experiment";
}

bool is_yaml(const fs::path& path) {
    return path.extension() == ".yaml" || path.extension() == ".yml";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: validate_specs <file-or-directory>...\n"
                     "parse-checks campaign, workcell-scenario and experiment YAML "
                     "files\n");
        return 2;
    }

    std::vector<fs::path> files;
    for (int i = 1; i < argc; ++i) {
        const fs::path path(argv[i]);
        if (fs::is_directory(path)) {
            for (const auto& entry : fs::recursive_directory_iterator(path)) {
                if (entry.is_regular_file() && is_yaml(entry.path())) {
                    files.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(path)) {
            files.push_back(path);
        } else {
            std::fprintf(stderr, "validate_specs: no such file or directory: %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "validate_specs: no YAML files under the given paths\n");
        return 2;
    }

    int failures = 0;
    for (const fs::path& path : files) {
        try {
            const std::string kind = validate_one(path);
            std::printf("  OK  %-10s %s\n", kind.c_str(), path.string().c_str());
        } catch (const std::exception& e) {
            ++failures;
            std::printf("FAIL  %s\n      %s\n", path.string().c_str(), e.what());
        }
    }
    std::printf("validate_specs: %zu file(s), %d failure(s)\n", files.size(), failures);
    return failures == 0 ? 0 : 1;
}
