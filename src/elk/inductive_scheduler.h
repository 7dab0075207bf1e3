/**
 * @file
 * Two-level inductive operator scheduling (paper §4.2).
 *
 * Operators execute in graph order; preloads run sequentially in a
 * given preload order pi. Scheduling decides, per operator i (backward
 * from the last), the preload frontier F_i — how many pi-positions are
 * issued before execute(i) in the device program. The preloads between
 * F_i and F_{i+1} are issued right after execute(i), so choosing a
 * larger F_i overlaps more preloads with execute(i) at the cost of
 * their SRAM footprints, which the §4.3 allocator must then fit.
 *
 * Times are backward-relative: T_end = 0 and all start times are
 * negative. For each candidate frontier the scheduler prices the live
 * set's allocation, reads the ALAP preload start estimates (chained
 * once per step), and picks the frontier maximizing T_s-exe(i) —
 * exactly the paper's "minimize current-to-end time" rule
 * (Theorem 4.2). The allocator runs only when the live set does not
 * fit at its floors; otherwise its starting point is the allocation.
 */
#ifndef ELK_ELK_INDUCTIVE_SCHEDULER_H
#define ELK_ELK_INDUCTIVE_SCHEDULER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "elk/memory_allocator.h"
#include "elk/schedule_ir.h"

namespace elk::compiler {

/// Knobs of the scheduling pass.
struct ScheduleOptions {
    /// Cap on simultaneously live preloaded operators (search width).
    int max_window = 28;
    /// Schedule only the first @p limit_ops operators (0 = all); used
    /// to score candidate preload orders cheaply (§4.4).
    int limit_ops = 0;
    /**
     * Weight of the delivery-replication fabric overhead when anchoring
     * each operator's preload-state plan: the walk starts at
     * argmin(distribute_time + overhead_weight * delivery_overhead).
     * 0 starts at full broadcast (overhead hides under execution in
     * compute-bound regimes), large values start at scatter (fabric is
     * precious in bandwidth-bound regimes). The compiler sweeps this
     * offline over kOverheadWeights (pass.h) and keeps the best
     * simulated plan.
     */
    double overhead_weight = 1.0;
};

/// Work counters of schedule() calls; they never enter a plan.
struct ScheduleWork {
    /// Candidate frontiers priced (those within the window).
    uint64_t frontiers_tested = 0;
    /// Frontiers whose live set overflowed SRAM at its floors, so the
    /// §4.3 allocator ran; the rest kept the floors as they were.
    uint64_t allocator_calls = 0;

    ScheduleWork&
    operator+=(const ScheduleWork& other)
    {
        frontiers_tested += other.frontiers_tested;
        allocator_calls += other.allocator_calls;
        return *this;
    }
};

/// The §4.2 scheduler; one instance per (graph, plan library).
class InductiveScheduler {
  public:
    explicit InductiveScheduler(const PlanLibrary& library)
        : library_(library), allocator_(library)
    {
    }

    /**
     * Schedules the model under preload order @p preload_order (a
     * permutation of execution indices 0..N-1; anything else panics).
     * Returns nullopt when the order cannot fit on-chip memory
     * (invalid order, §4.4). All scratch is local to the call, so one
     * scheduler may serve concurrent calls from several threads. When
     * @p work is given, the call's counters are added to it.
     */
    std::optional<ExecutionPlan> schedule(
        const std::vector<int>& preload_order,
        const ScheduleOptions& opts = {},
        ScheduleWork* work = nullptr) const;

    /// Convenience: schedule with the identity (execution) order.
    std::optional<ExecutionPlan> schedule_in_order(
        const ScheduleOptions& opts = {},
        ScheduleWork* work = nullptr) const;

    /**
     * The policy anchor under @p overhead_weight of every distinct
     * preload front in the library (PlanLibrary::preload_fronts()
     * order). The anchor is the only thing the weight decides, so two
     * weights with equal tables schedule every order identically, at
     * any window and op limit.
     */
    std::vector<int> anchor_table(double overhead_weight) const;

    /// Estimated preload duration of op given its preload plan
    /// (max of HBM roofline and interconnect delivery, paper §4.2).
    double preload_duration(int op_id,
                            const plan::PreloadPlan& preload) const;

  private:
    const PlanLibrary& library_;
    MemoryAllocator allocator_;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_INDUCTIVE_SCHEDULER_H
