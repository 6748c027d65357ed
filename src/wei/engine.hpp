// Workflow engine: runs declarative workflows against a transport, with
// retry-on-rejection resilience and full event logging.
#pragma once

#include <cstdint>

#include "support/common.hpp"
#include "wei/event_log.hpp"
#include "wei/module.hpp"
#include "wei/transport.hpp"
#include "wei/workflow.hpp"

namespace sdl::wei {

/// What the engine does about rejected commands. Each rejection costs a
/// fixed 2 s backoff before the next attempt.
struct RetryPolicy {
    /// Attempts per step before escalating (1 = no retries).
    int max_attempts = 5;
    /// When retries are exhausted: if true, record a human intervention
    /// (breaking the TWH streak) and keep going; if false, abort the
    /// workflow with a WorkflowError.
    bool human_rescue = true;
};

/// Thrown when a workflow cannot be completed (retries exhausted and
/// human_rescue disabled, or a device reported a hard failure).
class WorkflowError : public support::Error {
public:
    explicit WorkflowError(const std::string& message) : Error("workflow", message) {}
};

struct WorkflowRunStats {
    int steps_completed = 0;
    int rejections = 0;
    int interventions = 0;
    support::Duration duration = support::Duration::zero();
    /// Final (successful) result of each step, in step order — applications
    /// read device payloads (e.g. the camera's frame id) from here.
    std::vector<ActionResult> results;
};

class WorkflowEngine {
public:
    /// Borrows all references; they must outlive the engine.
    WorkflowEngine(Transport& transport, const ModuleRegistry& modules, EventLog& log,
                   RetryPolicy policy = {});

    /// Runs every step in order. Device *failures* (the driver ran and
    /// reported an error, e.g. empty reservoir) abort immediately with
    /// WorkflowError — they need application-level handling. Command
    /// *rejections* (communication layer) are retried per policy.
    WorkflowRunStats run(const Workflow& workflow);

    /// Total commands issued (attempts, including rejected ones).
    [[nodiscard]] std::uint64_t commands_issued() const noexcept { return next_command_id_; }

private:
    Transport& transport_;
    const ModuleRegistry& modules_;
    EventLog& log_;
    RetryPolicy policy_;
    std::uint64_t next_command_id_ = 0;
};

}  // namespace sdl::wei
