// Declarative workflows: named sequences of module actions (§2.2: "Users
// can specify, again using a declarative notation, workflows that perform
// sets of actions on modules").
#pragma once

#include <string>
#include <vector>

#include "support/json.hpp"

namespace sdl::wei {

struct WorkflowStep {
    std::string name;    ///< human-readable step label
    std::string module;  ///< target module
    std::string action;  ///< action to run
    support::json::Value args = support::json::Value::object();
};

class Workflow {
public:
    Workflow() = default;
    Workflow(std::string name, std::vector<WorkflowStep> steps);

    /// Parses the YAML notation:
    ///   name: cp_wf_mixcolor
    ///   steps:
    ///     - name: move to ot2
    ///       module: pf400
    ///       action: transfer
    ///       args: {source: camera.nest, target: ot2.deck}
    [[nodiscard]] static Workflow from_yaml(std::string_view text);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<WorkflowStep>& steps() const noexcept { return steps_; }
    [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

    /// Returns a copy with `extra` merged into the args of the step named
    /// `step_name` (how applications parameterize protocol steps, e.g.
    /// the ot2 well/volume payload).
    [[nodiscard]] Workflow with_step_args(std::string_view step_name,
                                          const support::json::Value& extra) const;

    /// Graphviz DOT rendering of the step chain (Figure-2 tooling).
    [[nodiscard]] std::string to_dot() const;

private:
    std::string name_;
    std::vector<WorkflowStep> steps_;
};

}  // namespace sdl::wei
