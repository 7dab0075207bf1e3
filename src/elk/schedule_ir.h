/**
 * @file
 * Schedule IR: the compiler's output (which plan each operator uses,
 * when it preloads) and the PlanLibrary cache of per-operator plan
 * Pareto fronts.
 */
#ifndef ELK_ELK_SCHEDULE_IR_H
#define ELK_ELK_SCHEDULE_IR_H

#include <string>
#include <vector>

#include "graph/graph.h"
#include "plan/plan_enumerator.h"
#include "util/thread_pool.h"

namespace elk::compiler {

/// Per-operator outcome of compilation.
struct OpSchedule {
    int op_id = -1;
    plan::ExecPlan exec;        ///< chosen execute-state plan.
    plan::PreloadPlan preload;  ///< chosen preload-state plan.
    double est_exec_time = 0.0; ///< exec incl. fetch, excl. distribution.
    double est_preload_time = 0.0;  ///< max(DRAM, delivery) roofline.
};

/// Whole-model execution plan (paper Fig. 9 "Best Plan").
struct ExecutionPlan {
    std::string mode;
    std::vector<OpSchedule> ops;     ///< by execution order.
    std::vector<int> preload_order;  ///< execution indices, issue order.
    std::vector<int> issue_slot;     ///< per preload_order entry.
    double est_total_time = 0.0;     ///< scheduler's own estimate.

    /// Average §6.2-style edit distance of the preload order from the
    /// execution order (mean |position - exec index| over moved ops);
    /// 0 for an empty or unmoved plan.
    double reorder_edit_distance() const;

    /**
     * Exact byte-level serialization of the whole plan (doubles as
     * IEEE bit patterns). Two plans serialize identically iff every
     * field is bit-identical — the check the parallel compiler uses
     * to prove it matches the serial path.
     */
    std::string serialize_bits() const;
};

/**
 * Caches Pareto plan fronts per operator. Operators with identical
 * signatures (kind + dims + every byte count the plan metrics read,
 * act_out_bytes included) share one entry, which keeps
 * enumeration cost sub-linear in model size (paper §5 scalability).
 */
class PlanLibrary {
  public:
    /**
     * Enumerates every signature's execute-state front and, for each
     * of its plans, the derived preload-state front. @p pool fans the
     * per-signature enumerations out across worker threads (nullptr =
     * serial); the resulting library is bit-identical either way and
     * fully immutable afterwards, so lookups are safe from any thread.
     */
    PlanLibrary(const graph::Graph& graph, const plan::PlanContext& ctx,
                util::ThreadPool* pool = nullptr);

    /// Pareto-front execute-state plans of op @p id, fastest first.
    /// Panics with the operator's name if the front is empty.
    const std::vector<plan::ExecPlan>&
    exec_plans(int id) const
    {
        // The scheduler's hottest read: the checks stay inline, the
        // panic text is built out of line.
        if (id < 0 || id >= static_cast<int>(signature_of_.size()) ||
            fronts_[signature_of_[id]].empty()) {
            bad_exec_lookup(id);
        }
        return fronts_[signature_of_[id]];
    }

    /**
     * Pareto-front preload-state plans of op @p id given that it will
     * execute with exec_plans(id)[exec_idx]; largest-memory first
     * (MaxPreload at index 0). Panics with a clear message when
     * exec_idx is out of range or the front is empty.
     */
    const std::vector<plan::PreloadPlan>&
    preload_plans(int id, int exec_idx) const
    {
        if (id < 0 || id >= static_cast<int>(signature_of_.size())) {
            bad_preload_lookup(id, exec_idx);
        }
        const auto& per_exec = preload_fronts_[signature_of_[id]];
        if (exec_idx < 0 || exec_idx >= static_cast<int>(per_exec.size()) ||
            per_exec[exec_idx].empty()) {
            bad_preload_lookup(id, exec_idx);
        }
        return per_exec[exec_idx];
    }

    /**
     * Every distinct preload-state front, [signature][exec plan index]
     * in first-seen signature order: each front preload_plans() can
     * return appears here exactly once.
     */
    const std::vector<std::vector<std::vector<plan::PreloadPlan>>>&
    preload_fronts() const
    {
        return preload_fronts_;
    }

    /// The paper's P: maximum Pareto plans across operators.
    int max_plans_per_op() const;

    /// Counters of the execute-front enumeration behind this library.
    const plan::EnumerationStats& enumeration_stats() const
    {
        return enumeration_stats_;
    }

    /// Number of distinct operator signatures (diagnostics).
    int num_signatures() const { return static_cast<int>(fronts_.size()); }

    const graph::Graph& graph() const { return graph_; }
    const plan::PlanContext& context() const { return ctx_; }

  private:
    /// Panic with the reason an exec_plans / preload_plans lookup
    /// failed; out of line so the inline accessors stay small.
    [[noreturn, gnu::cold]] void bad_exec_lookup(int id) const;
    [[noreturn, gnu::cold]] void bad_preload_lookup(int id,
                                                    int exec_idx) const;
    void check_id(const char* what, int id) const;

    const graph::Graph& graph_;
    plan::PlanContext ctx_;
    std::vector<int> signature_of_;  ///< op id -> front index.
    std::vector<std::vector<plan::ExecPlan>> fronts_;
    plan::EnumerationStats enumeration_stats_;
    /// [front index][exec plan index] -> preload front; eagerly built
    /// so post-construction reads never mutate the library.
    std::vector<std::vector<std::vector<plan::PreloadPlan>>>
        preload_fronts_;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_SCHEDULE_IR_H
