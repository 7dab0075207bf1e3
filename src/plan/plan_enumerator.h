/**
 * @file
 * Enumeration of execute-state and preload-state partition plans for a
 * single operator (paper §4.3, "intra-operator tradeoffs"), with the
 * per-plan metric computation the scheduler and allocator consume.
 */
#ifndef ELK_PLAN_PLAN_ENUMERATOR_H
#define ELK_PLAN_PLAN_ENUMERATOR_H

#include <cstdint>
#include <vector>

#include "cost/exec_cost.h"
#include "graph/op.h"
#include "hw/chip_config.h"
#include "hw/traffic.h"
#include "plan/partition_plan.h"
#include "util/thread_pool.h"

namespace elk::plan {

/// Everything plan metric computation needs about the target.
struct PlanContext {
    const hw::ChipConfig* cfg = nullptr;
    const hw::TrafficModel* traffic = nullptr;
    const cost::ExecCostModel* exec_cost = nullptr;
    /// Optional owner of exec_cost: a const-safe shared handle that
    /// keeps the model alive across CompileState copies and worker
    /// threads. Set it with set_cost_model(); contexts built around a
    /// caller-owned model may leave it empty and fill exec_cost alone.
    cost::ExecCostHandle exec_cost_owner;

    /// Points exec_cost at @p handle and retains ownership of it.
    void
    set_cost_model(cost::ExecCostHandle handle)
    {
        exec_cost_owner = std::move(handle);
        exec_cost = exec_cost_owner.get();
    }

    /// SRAM budget per core available to the compiler.
    uint64_t sram_budget() const { return cfg->usable_sram_per_core(); }
};

/// Work counters of execute-front enumeration. They depend on the
/// operators and the chip only, never on threads or timing.
struct EnumerationStats {
    /// Feasible execute plans enumerated (before the Pareto cut).
    uint64_t exec_points = 0;
    /// Fronts with a key shared by two or more plans, whose winner the
    /// tie sort picked (see pareto_front).
    int tied_fronts = 0;
};

/**
 * Enumerates Pareto-optimal execute-state plans of @p op: every
 * combination of partition factors and residency factors that fits the
 * chip, reduced to the (exec_space, exec_time) Pareto front, sorted
 * fastest-first (descending memory). Never empty for a well-formed
 * operator — at minimum the most-partitioned plan survives. The
 * partition-dependent metric terms are computed once per partition
 * and shared by its residency choices. @p stats, when non-null,
 * accumulates the enumeration's counters.
 */
std::vector<ExecPlan> enumerate_exec_plans(const graph::Operator& op,
                                           const PlanContext& ctx,
                                           EnumerationStats* stats = nullptr);

/**
 * Enumerates the execute-state Pareto front of every operator in
 * @p ops, optionally fanning the per-operator enumerations out over
 * @p pool (nullptr = serial). Result i is the front of ops[i];
 * identical to calling enumerate_exec_plans per operator, in any
 * pool configuration (per-slot writes, no cross-operator state).
 * @p stats, when non-null, accumulates every operator's counters.
 */
std::vector<std::vector<ExecPlan>> enumerate_exec_fronts(
    const std::vector<const graph::Operator*>& ops, const PlanContext& ctx,
    util::ThreadPool* pool = nullptr, EnumerationStats* stats = nullptr);

/**
 * Enumerates Pareto-optimal preload-state plans for a preloaded @p op
 * whose execute-state plan is @p exec: gamma sweeps from the full
 * execute-state residency (MaxPreload, zero distribution) down to
 * 1/group_w (MinPreload, maximum distribution), paper §4.3's
 * 1, 1/2, 1/4 example. Sorted by descending preload space.
 */
std::vector<PreloadPlan> enumerate_preload_plans(const graph::Operator& op,
                                                 const ExecPlan& exec,
                                                 const PlanContext& ctx);

/**
 * Index (>= @p floor) of the preload plan with the lowest combined
 * time cost (distribution + delivery-replication fabric overhead) on
 * a front sorted by descending space — the broadcast/distribution
 * balance point where allocation walks start.
 */
int min_time_cost_index(const std::vector<PreloadPlan>& front,
                        int floor = 0);

/**
 * Fills the derived metrics of @p plan for @p op; exposed for tests.
 * Returns false when the plan is infeasible (tile does not fit in the
 * SRAM budget or factors exceed dims/cores/sharing groups), leaving
 * @p plan untouched. Runs the same two stages enumeration does: the
 * partition stage (terms of the partition factors alone), then the
 * replication stage (terms of repl_a and repl_w).
 */
bool compute_plan_metrics(const graph::Operator& op, const PlanContext& ctx,
                          ExecPlan& plan);

}  // namespace elk::plan

#endif  // ELK_PLAN_PLAN_ENUMERATOR_H
