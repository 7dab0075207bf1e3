/**
 * @file
 * Shared plumbing for the per-figure benchmark drivers: the evaluation
 * workloads (paper Table 2), design compilation/execution wrappers,
 * and environment knobs (ELK_BENCH_FAST=1 trims sweeps for CI).
 */
#ifndef ELK_BENCH_BENCH_COMMON_H
#define ELK_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "elk/compiler.h"
#include "graph/model_builder.h"
#include "graph/model_config.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "sim/engine.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace elk::bench {

/// True when the fast (CI) sweep mode is requested.
inline bool
fast_mode()
{
    const char* env = std::getenv("ELK_BENCH_FAST");
    return env != nullptr && env[0] == '1';
}

/**
 * Compiler worker threads for the benches: the --jobs N flag, else
 * the ELK_BENCH_JOBS environment knob, else 1 (serial). 0 means all
 * hardware threads. Plans are bit-identical at any setting, so jobs
 * only changes wall-clock. The parse is strict — every figure bench
 * shares this one-flag command line, and an unknown argument is fatal
 * rather than silently ignored (a typo must not degrade a sweep to
 * its serial default).
 */
inline int
jobs(int argc = 0, char** argv = nullptr)
{
    int parsed = -1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc) {
                util::fatal("--jobs requires a value");
            }
            parsed = util::ThreadPool::parse_jobs_arg(argv[++i],
                                                      "--jobs");
        } else {
            util::fatal(std::string("unknown argument '") + argv[i] +
                        "'; usage: " + argv[0] + " [--jobs N]");
        }
    }
    if (parsed >= 0) {
        return parsed;
    }
    const char* env = std::getenv("ELK_BENCH_JOBS");
    return env != nullptr
               ? util::ThreadPool::parse_jobs_arg(env, "ELK_BENCH_JOBS")
               : 1;
}

/// Fastest exec plan of @p op fitting the Static execution space
/// @p exec_budget (the smallest plan when none fits); its index in the
/// exec front goes to @p idx.
inline const plan::ExecPlan&
static_exec_plan(const compiler::PlanLibrary& lib, int op,
                 uint64_t exec_budget, int* idx)
{
    const auto& front = lib.exec_plans(op);
    *idx = static_cast<int>(front.size()) - 1;
    for (int e = 0; e < static_cast<int>(front.size()); ++e) {
        if (front[e].exec_space <= exec_budget) {
            *idx = e;
            break;
        }
    }
    return front[*idx];
}

/// Preload plan per policy: MaxPreload takes the largest plan fitting
/// @p region, MinPreload the scatter-minimum.
inline const plan::PreloadPlan&
policy_preload(const compiler::PlanLibrary& lib, int op, int exec_idx,
               bool max_preload, uint64_t region)
{
    const auto& front = lib.preload_plans(op, exec_idx);
    if (!max_preload) {
        return front.back();
    }
    for (const auto& p : front) {
        if (p.preload_space <= region) {
            return p;
        }
    }
    return front.back();
}

/// The paper's four LLM evaluation workloads.
inline std::vector<graph::ModelConfig>
llm_models()
{
    return {graph::llama2_13b(), graph::gemma2_27b(), graph::opt_30b(),
            graph::llama2_70b()};
}

/// The five designs of §6.1 in presentation order.
inline std::vector<compiler::Mode>
all_designs()
{
    return {compiler::Mode::kBasic, compiler::Mode::kStatic,
            compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
            compiler::Mode::kIdeal};
}

/// One compiled-and-simulated design point.
struct RunResult {
    compiler::Mode mode;
    compiler::CompileResult compiled;
    sim::SimResult sim;
};

/**
 * Compiles @p mode for (@p graph, @p cfg) and runs it on the matching
 * machine (Ideal runs on the split-fabric machine per §6.1).
 */
inline RunResult
run_design(const compiler::Compiler& comp, const graph::Graph& graph,
           const hw::ChipConfig& cfg, compiler::Mode mode,
           int max_orders = 24)
{
    compiler::CompileOptions opts;
    opts.mode = mode;
    opts.max_orders = fast_mode() ? 6 : max_orders;
    RunResult r;
    r.mode = mode;
    r.compiled = comp.compile(opts);
    sim::Machine machine(cfg, mode == compiler::Mode::kIdeal);
    r.sim = runtime::run_plan(machine, graph, r.compiled.plan,
                              comp.context());
    return r;
}

/// Runs every design on one workload; returns results in design
/// order. @p n_jobs: compiler worker threads — defaults to the
/// ELK_BENCH_JOBS knob so every bench built on this helper
/// parallelizes without plumbing argv.
inline std::vector<RunResult>
run_all_designs(const graph::Graph& graph, const hw::ChipConfig& cfg,
                int n_jobs = jobs())
{
    compiler::Compiler comp(graph, cfg, nullptr, n_jobs);
    std::vector<RunResult> out;
    for (auto mode : all_designs()) {
        out.push_back(run_design(comp, graph, cfg, mode));
    }
    return out;
}

}  // namespace elk::bench

#endif  // ELK_BENCH_BENCH_COMMON_H
