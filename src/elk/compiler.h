/**
 * @file
 * The Elk compiler facade (paper Fig. 9): a thin driver over the pass
 * pipeline in pass.h. It owns the analysis products (the chip's
 * sim::Machine, built once per chip and shareable across compilers,
 * plus the plan library, built once per (graph, chip) pair) and runs
 * the mode-gated scheduling passes per compile() call:
 *
 *  - Basic:    maximize execution space, preload only the next op;
 *  - Static:   T10-extended — fixed preload/execution split, best
 *              static sizes searched offline;
 *  - Elk-Dyn:  inductive scheduling + cost-aware allocation (§4.2-4.3);
 *  - Elk-Full: Elk-Dyn plus preload order permutation (§4.4);
 *  - Ideal:    the §6.1 roofline (run it on an ideal split-fabric
 *              Machine).
 *
 * Compilation parallelizes over a work-stealing pool sized by the
 * constructor's `jobs` argument (`--jobs` on the command line), the
 * one knob for compile threads; every compile() of this compiler uses
 * that pool, and the produced plan is bit-identical at any job count.
 */
#ifndef ELK_ELK_COMPILER_H
#define ELK_ELK_COMPILER_H

#include <memory>
#include <string>

#include "cost/exec_cost.h"
#include "elk/pass.h"
#include "elk/schedule_ir.h"
#include "hw/chip_config.h"
#include "util/thread_pool.h"

namespace elk::compiler {

/// Result of one compilation.
struct CompileResult {
    ExecutionPlan plan;
    SearchStats stats;
    double compile_seconds = 0.0;
};

/// The compiler; one instance per (graph, chip) pair.
class Compiler {
  public:
    /**
     * Builds the analysis products (hardware analysis + plan library)
     * by running the pipeline prefix. @p cost_model overrides the
     * planner's execution cost model (default: the analytic model);
     * the pointer must outlive the compiler. @p jobs sets the worker
     * threads for the parallel passes — 1 (default) is serial, 0 uses
     * every hardware thread, N > 1 uses N threads; the plan library
     * build in this constructor already fans out over them.
     * @p machine, when given, is the chip analysis to share instead
     * of building one: it must model @p cfg's chip on the shared
     * (non-split) fabric, or construction dies with a worded check.
     */
    Compiler(const graph::Graph& graph, const hw::ChipConfig& cfg,
             const cost::ExecCostModel* cost_model = nullptr,
             int jobs = 1,
             std::shared_ptr<const sim::Machine> machine = nullptr);

    /// Compiles an execution plan for the requested design by running
    /// the scheduling passes of the pipeline. Safe to call
    /// concurrently: each call works on a private copy of the state,
    /// whose analysis products are immutable.
    CompileResult compile(const CompileOptions& opts = {}) const;

    /// Plan library (Table 2 statistics, tests).
    const PlanLibrary& library() const { return *state_.library; }

    /// Plan context (for lowering to the simulator).
    const plan::PlanContext& context() const { return state_.ctx; }

    /// The pass pipeline this compiler drives (--passes, tests).
    const CompilerPipeline& pipeline() const { return pipeline_; }

    /// The paper's K for this graph: the longest run of consecutive
    /// operators whose minimum preload spaces fit on-chip together.
    int max_fit_window() const;

    /// Worker threads of the construction-time pool (1 = serial).
    int jobs() const;

  private:
    CompilerPipeline pipeline_;
    std::unique_ptr<util::ThreadPool> pool_;
    CompileState state_;  ///< analysis products shared by compiles.
};

}  // namespace elk::compiler

#endif  // ELK_ELK_COMPILER_H
