// Traced twin of the Figure-2 loop (core::ColorPickerApp::run).
//
// The program has no spans of its own yet, so the benchmark times the
// layers from outside: the twin repeats ColorPickerApp::run step for
// step through public calls only, and opens a span around every call
// into a layer — solver ask/tell, each workflow on its own
// wei::WorkflowEngine, each device request (a timing wei::Transport in
// front of the runtime's SimTransport), the vision read, publish, the
// metrics snapshot and the final DES drain. Its outcome must equal
// ColorPickerApp::run on the same config bit for bit; loopbench checks
// that before any span is reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment_config.hpp"

namespace perfbench {

/// One timed call. `parent` indexes the enclosing span (-1 for a root).
struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Single-threaded span recorder: spans nest in call order.
class Tracer {
public:
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::size_t index_;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] static std::int64_t now_ns();

private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/// Work counts seen at the layer boundaries the twin crosses.
struct TwinCounters {
    std::int64_t asks = 0;
    std::int64_t tells = 0;
    std::int64_t frames = 0;        ///< frames the camera captured
    double megapixels = 0.0;        ///< pixels of every frame read, / 1e6
    std::int64_t roi_hits = 0;      ///< PlateReader fast-path frames
    std::int64_t full_scans = 0;    ///< PlateReader full-frame scans
    std::int64_t retakes = 0;
    std::int64_t commands = 0;      ///< engine commands issued (incl. rejected)
    std::int64_t rejections = 0;
    std::int64_t interventions = 0;
    std::int64_t publishes = 0;
};

struct TwinRun {
    sdl::core::ExperimentOutcome outcome;
    TwinCounters counters;
};

/// Builds a runtime for `config` inside a "core.setup" span, then runs
/// the loop inside a "loop" span. Spans go to `tracer`.
[[nodiscard]] TwinRun run_twin(const sdl::core::ColorPickerConfig& config, Tracer& tracer);

}  // namespace perfbench
