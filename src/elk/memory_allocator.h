/**
 * @file
 * Cost-aware on-chip memory allocation (paper §4.3).
 *
 * Given the currently executing operator and the set of operators
 * preloaded (live) during its execution, choose the execution-space
 * plan for the current operator and the preload-space plan for every
 * live operator so that everything fits per-core SRAM.
 *
 * The algorithm starts every operator at its fastest (largest-memory)
 * Pareto plan, then repeatedly downgrades the most "cost-effective"
 * operator — the one whose next smaller plan gives the largest
 * delta = freed space / added time — until the total fits (paper
 * Fig. 11). O(P*K) for K live operators with P plans each.
 */
#ifndef ELK_ELK_MEMORY_ALLOCATOR_H
#define ELK_ELK_MEMORY_ALLOCATOR_H

#include <cstdint>
#include <vector>

#include "elk/schedule_ir.h"

namespace elk::compiler {

/// Outcome of one allocation.
struct AllocationChoice {
    bool feasible = false;
    int exec_idx = 0;  ///< index into the current op's exec Pareto front.
    /// Per live op (same order as the request): preload plan index.
    std::vector<int> preload_idx;
    double exec_time = 0.0;  ///< current op's execution time estimate.
    uint64_t used_space = 0;  ///< per-core bytes after allocation.
};

/**
 * Working storage of one allocate() call: each live op's resolved
 * preload front and its cached next-downgrade delta. The caller owns
 * it and passes the same object to every call of a hot loop, so the
 * buffers are allocated once instead of per call; allocate() resizes
 * and overwrites them, and nothing carries from one call to the next.
 */
struct AllocatorScratch {
    std::vector<const std::vector<plan::PreloadPlan>*> fronts;
    std::vector<double> delta;
};

/// The §4.3 greedy allocator over Pareto fronts.
class MemoryAllocator {
  public:
    explicit MemoryAllocator(const PlanLibrary& library)
        : library_(library)
    {
    }

    /**
     * Allocates SRAM between the current operator and the live set.
     *
     * @param current_op     execution index of the executing operator.
     * @param live_ops       execution indices of preloaded operators.
     * @param live_exec_idx  per live op: its (already fixed) exec plan
     *                       index — preload fronts derive from it.
     * @param live_floor_idx per live op: minimum preload plan index
     *                       (monotone-tightening floor committed by
     *                       later scheduling steps; pass 0s if none).
     * @param budget         per-core SRAM bytes available.
     * @param scratch        the call's working storage (see
     *                       AllocatorScratch); one per thread.
     */
    AllocationChoice allocate(int current_op,
                              const std::vector<int>& live_ops,
                              const std::vector<int>& live_exec_idx,
                              const std::vector<int>& live_floor_idx,
                              uint64_t budget,
                              AllocatorScratch& scratch) const;

  private:
    const PlanLibrary& library_;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_MEMORY_ALLOCATOR_H
