#include "wei/engine.hpp"

#include "support/log.hpp"

namespace sdl::wei {

namespace {

/// Wait inserted after each rejection, before the retry or escalation.
constexpr support::Duration kBackoff = support::Duration::seconds(2.0);

}  // namespace

WorkflowEngine::WorkflowEngine(Transport& transport, const ModuleRegistry& modules,
                               EventLog& log, RetryPolicy policy)
    : transport_(transport), modules_(modules), log_(log), policy_(policy) {}

WorkflowRunStats WorkflowEngine::run(const Workflow& workflow) {
    WorkflowRunStats stats;
    const support::TimePoint wf_start = transport_.now();
    support::log_info("engine", "workflow '", workflow.name(), "' started");

    for (const WorkflowStep& step : workflow.steps()) {
        const bool robotic = modules_.get(step.module).info().robotic;
        int attempt = 0;
        for (;;) {
            ++attempt;
            ActionRequest request;
            request.module = step.module;
            request.action = step.action;
            request.args = step.args;
            request.command_id = ++next_command_id_;

            const support::TimePoint start = transport_.now();
            const ActionResult result = transport_.execute(request);

            StepRecord record;
            record.workflow = workflow.name();
            record.step = step.name;
            record.module = step.module;
            record.action = step.action;
            record.start = start;
            record.end = start + result.duration;
            record.status = result.status;
            record.attempt = attempt;
            record.robotic = robotic;
            record.command_id = request.command_id;
            log_.record_step(record);

            if (result.ok()) {
                ++stats.steps_completed;
                stats.results.push_back(result);
                break;
            }
            if (result.status == ActionStatus::Failed) {
                // The device executed and reported a hard error: no retry
                // can fix an empty reservoir or a missing plate.
                log_.record_workflow({workflow.name(), wf_start, transport_.now(), false});
                throw WorkflowError("step '" + step.name + "' (" + step.module + "." +
                                    step.action + ") failed: " + result.error);
            }

            // Rejected: communication-layer loss, retry per policy.
            ++stats.rejections;
            support::log_warn("engine", "step '", step.name, "' rejected (attempt ",
                              attempt, "): ", result.error);
            transport_.wait(kBackoff);
            if (attempt >= policy_.max_attempts) {
                if (!policy_.human_rescue) {
                    log_.record_workflow({workflow.name(), wf_start, transport_.now(), false});
                    throw WorkflowError("step '" + step.name + "' rejected " +
                                        std::to_string(attempt) + " times");
                }
                // A human walks over, re-seats the connection, and the
                // step is re-attempted with a fresh retry budget.
                log_.record_intervention(
                    {transport_.now(), "retries exhausted on step '" + step.name + "'"});
                ++stats.interventions;
                attempt = 0;
            }
        }
    }

    const support::TimePoint wf_end = transport_.now();
    log_.record_workflow({workflow.name(), wf_start, wf_end, true});
    stats.duration = wf_end - wf_start;
    support::log_info("engine", "workflow '", workflow.name(), "' completed in ",
                      stats.duration.pretty());
    return stats;
}

}  // namespace sdl::wei
