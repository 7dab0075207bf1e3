#include "elk/memory_allocator.h"

#include <limits>

#include "util/logging.h"

namespace elk::compiler {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cost-effectiveness of downgrading @p cur to @p nxt: freed space per
/// added time, infinity when the downgrade adds no time.
template <typename Plan>
double
downgrade_delta(const Plan& cur, const Plan& nxt, uint64_t Plan::*space)
{
    double freed = static_cast<double>(cur.*space) -
                   static_cast<double>(nxt.*space);
    double added = nxt.time_cost() - cur.time_cost();
    return added <= 0 ? kInf : freed / added;
}

}  // namespace

AllocationChoice
MemoryAllocator::allocate(int current_op, const std::vector<int>& live_ops,
                          const std::vector<int>& live_exec_idx,
                          const std::vector<int>& live_floor_idx,
                          uint64_t budget, AllocatorScratch& scratch) const
{
    util::check(live_ops.size() == live_exec_idx.size() &&
                    live_ops.size() == live_floor_idx.size(),
                "MemoryAllocator: request size mismatch");

    const auto& exec_front = library_.exec_plans(current_op);
    const size_t k = live_ops.size();
    AllocationChoice choice;
    choice.exec_idx = 0;
    choice.preload_idx = live_floor_idx;

    // Each live op's preload front is resolved once, and the footprint
    // is a running total: a downgrade swaps one plan's space for its
    // successor's. delta[j] caches live op j's next-downgrade delta
    // (-infinity at its smallest plan); only a downgrade of j moves it.
    auto& fronts = scratch.fronts;
    auto& delta = scratch.delta;
    fronts.resize(k);
    delta.resize(k);
    auto preload_delta = [&](size_t j) {
        const auto& front = *fronts[j];
        int idx = choice.preload_idx[j];
        return idx + 1 < static_cast<int>(front.size())
                   ? downgrade_delta(front[idx], front[idx + 1],
                                     &plan::PreloadPlan::preload_space)
                   : -kInf;
    };
    auto exec_delta = [&] {
        int idx = choice.exec_idx;
        return idx + 1 < static_cast<int>(exec_front.size())
                   ? downgrade_delta(exec_front[idx], exec_front[idx + 1],
                                     &plan::ExecPlan::exec_space)
                   : -kInf;
    };

    uint64_t space = exec_front[choice.exec_idx].exec_space;
    for (size_t j = 0; j < k; ++j) {
        fronts[j] = &library_.preload_plans(live_ops[j], live_exec_idx[j]);
        space += (*fronts[j])[choice.preload_idx[j]].preload_space;
        delta[j] = preload_delta(j);
    }
    double cur_exec_delta = exec_delta();

    while (space > budget) {
        // Candidate downgrades: current op's next exec plan, or any
        // live op's next preload plan. Pick max freed-space/added-time;
        // ties keep the first (exec plan, then live order).
        double best_delta = -1.0;
        int best_kind = -1;  // 0 = exec plan, 1 = preload plan
        size_t best_j = 0;
        if (cur_exec_delta > best_delta) {
            best_delta = cur_exec_delta;
            best_kind = 0;
        }
        for (size_t j = 0; j < k; ++j) {
            if (delta[j] > best_delta) {
                best_delta = delta[j];
                best_kind = 1;
                best_j = j;
            }
        }

        if (best_kind < 0) {
            choice.feasible = false;
            choice.used_space = space;
            return choice;  // every operator already at its smallest plan
        }
        if (best_kind == 0) {
            space -= exec_front[choice.exec_idx].exec_space;
            ++choice.exec_idx;
            space += exec_front[choice.exec_idx].exec_space;
            cur_exec_delta = exec_delta();
        } else {
            const auto& front = *fronts[best_j];
            int& idx = choice.preload_idx[best_j];
            space -= front[idx].preload_space;
            ++idx;
            space += front[idx].preload_space;
            delta[best_j] = preload_delta(best_j);
        }
    }

    choice.feasible = true;
    choice.used_space = space;
    choice.exec_time = exec_front[choice.exec_idx].exec_time;
    return choice;
}

}  // namespace elk::compiler
