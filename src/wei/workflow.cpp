#include "wei/workflow.hpp"

#include "support/common.hpp"
#include "support/yaml.hpp"

namespace sdl::wei {

namespace json = support::json;

Workflow::Workflow(std::string name, std::vector<WorkflowStep> steps)
    : name_(std::move(name)), steps_(std::move(steps)) {
    support::check(!name_.empty(), "workflow needs a name");
}

Workflow Workflow::from_yaml(std::string_view text) {
    const json::Value doc = support::yaml::parse(text);
    if (!doc.is_object() || !doc.contains("name")) {
        throw support::ConfigError("workflow file must be a mapping with a 'name'");
    }
    std::vector<WorkflowStep> steps;
    const json::Value* steps_node = doc.find("steps");
    if (steps_node == nullptr || !steps_node->is_array()) {
        throw support::ConfigError("workflow '" + doc.at("name").as_string() +
                                   "' must list 'steps'");
    }
    for (const json::Value& s : steps_node->as_array()) {
        if (!s.is_object() || !s.contains("module") || !s.contains("action")) {
            throw support::ConfigError("each step needs 'module' and 'action'");
        }
        WorkflowStep step;
        step.module = s.at("module").as_string();
        step.action = s.at("action").as_string();
        step.name = s.get_or("name", step.module + "." + step.action);
        if (const json::Value* args = s.find("args")) {
            if (!args->is_object()) {
                throw support::ConfigError("step 'args' must be a mapping");
            }
            step.args = *args;
        }
        steps.push_back(std::move(step));
    }
    return Workflow(doc.at("name").as_string(), std::move(steps));
}

Workflow Workflow::with_step_args(std::string_view step_name,
                                  const json::Value& extra) const {
    support::check(extra.is_object(), "step-arg overrides must be an object");
    Workflow copy = *this;
    bool found = false;
    for (WorkflowStep& step : copy.steps_) {
        if (step.name == step_name) {
            for (const auto& [key, value] : extra.as_object()) {
                step.args.set(key, value);
            }
            found = true;
        }
    }
    if (!found) {
        throw support::ConfigError("workflow '" + name_ + "' has no step named '" +
                                   std::string(step_name) + "'");
    }
    return copy;
}

std::string Workflow::to_dot() const {
    std::string out = "digraph \"" + name_ + "\" {\n  rankdir=TB;\n  node [shape=box];\n";
    for (std::size_t i = 0; i < steps_.size(); ++i) {
        out += "  s" + std::to_string(i) + " [label=\"" + steps_[i].module + "." +
               steps_[i].action + "\"];\n";
        if (i > 0) {
            out += "  s" + std::to_string(i - 1) + " -> s" + std::to_string(i) + ";\n";
        }
    }
    out += "}\n";
    return out;
}

}  // namespace sdl::wei
