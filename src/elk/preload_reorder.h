/**
 * @file
 * Preload order permutation (paper §4.4).
 *
 * Elk may preload operators in a different order than they execute:
 * delaying a large operator's preload shortens the lifespan of its
 * SRAM footprint (more execution space for earlier operators), and
 * shifting heavy preload traffic avoids interconnect "rush hours".
 *
 * Search-space pruning follows the paper:
 *  - only operators with above-average HBM volume are reordered;
 *    light operators keep their execution position;
 *  - reordering happens within one transformer layer and the same
 *    permutation applies to every identical layer;
 *  - permutations whose displacement exceeds what the on-chip memory
 *    can tolerate are dropped (the Fig. 14 suffix-tree feasibility
 *    check, realized as a per-element displacement bound derived from
 *    how many heavy operators fit on-chip simultaneously).
 */
#ifndef ELK_ELK_PRELOAD_REORDER_H
#define ELK_ELK_PRELOAD_REORDER_H

#include <vector>

#include "elk/inductive_scheduler.h"
#include "elk/schedule_ir.h"
#include "sim/machine.h"
#include "util/thread_pool.h"

namespace elk::compiler {

/// Statistics of the candidate-order generation (Table 2 inputs).
struct ReorderStats {
    int heavy_per_layer = 0;   ///< the paper's H.
    int heavy_fit_on_chip = 0; ///< the paper's C.
    int candidates = 0;        ///< orders actually generated.
};

/**
 * Generates candidate preload orders (each a permutation of execution
 * indices 0..N-1). The identity order is always candidate 0. At most
 * @p max_orders candidates are returned.
 */
std::vector<std::vector<int>> generate_candidate_orders(
    const PlanLibrary& library, int max_orders, ReorderStats* stats);

/**
 * The paper's C for a graph: the maximum number of HBM-heavy
 * operators of one layer whose minimum preload spaces fit on-chip
 * simultaneously.
 */
int heavy_ops_fit_on_chip(const PlanLibrary& library);

/**
 * Scores every candidate order: schedules it under @p score_opts
 * (typically truncated to a model prefix via limit_ops) and simulates
 * the result on @p machine — the paper's §4.4 "performance
 * estimation". Returns one total-time score per candidate, infinity
 * for orders the scheduler rejects. Candidates fan out over @p pool
 * (nullptr = serial) and write disjoint slots, so the scores — and
 * any first-minimum winner selection over them — are bit-identical to
 * the serial evaluation. When @p work is given, every candidate's
 * scheduler counters are added to it, merged in candidate order.
 */
std::vector<double> score_candidate_orders(
    const PlanLibrary& library, const std::vector<std::vector<int>>& orders,
    const ScheduleOptions& score_opts, const sim::Machine& machine,
    util::ThreadPool* pool, ScheduleWork* work = nullptr);

}  // namespace elk::compiler

#endif  // ELK_ELK_PRELOAD_REORDER_H
