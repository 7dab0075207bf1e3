#include "elk/compiler.h"

#include <chrono>
#include <utility>

#include "util/logging.h"

namespace elk::compiler {

Compiler::Compiler(const graph::Graph& graph, const hw::ChipConfig& cfg,
                   const cost::ExecCostModel* cost_model, int jobs,
                   std::shared_ptr<const sim::Machine> machine)
    : pipeline_(CompilerPipeline::standard())
{
    int threads = util::ThreadPool::resolve_jobs(jobs);
    if (threads > 1) {
        pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    state_.graph = &graph;
    state_.pool = pool_.get();
    state_.cfg = std::make_shared<hw::ChipConfig>(cfg);
    state_.machine = std::move(machine);
    if (cost_model != nullptr) {
        state_.ctx.set_cost_model(cost::borrow_cost_model(cost_model));
    }
    // Build the analysis products once; every compile() reuses them.
    pipeline_.run_prefix(state_, "plan-library");
}

int
Compiler::jobs() const
{
    return pool_ ? pool_->size() : 1;
}

int
Compiler::max_fit_window() const
{
    return compiler::max_fit_window(*state_.library);
}

CompileResult
Compiler::compile(const CompileOptions& opts) const
{
    auto t0 = std::chrono::steady_clock::now();
    pipeline_.validate_filter(opts.pass_filter);

    CompileState state = state_;  // shares the analysis products
    state.opts = opts;

    pipeline_.run(state);
    if (!state.plan.has_value()) {
        util::panic("compile: the pipeline produced no ExecutionPlan for "
                    "mode " + mode_name(opts.mode) +
                    " — a scheduling pass was skipped (--passes?)");
    }

    CompileResult result;
    result.plan = std::move(*state.plan);
    result.stats = state.stats;
    auto t1 = std::chrono::steady_clock::now();
    result.compile_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return result;
}

}  // namespace elk::compiler
