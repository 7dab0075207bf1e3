#include "elk/preload_reorder.h"

#include <algorithm>
#include <limits>
#include <map>

#include "runtime/executor.h"
#include "util/logging.h"

namespace elk::compiler {

namespace {

/// Minimum per-core preload space of an operator (smallest plan of its
/// fastest execute-state plan's preload front).
uint64_t
min_preload_space(const PlanLibrary& library, int op)
{
    const auto& front = library.preload_plans(op, 0);
    return front.back().preload_space;
}

}  // namespace

int
heavy_ops_fit_on_chip(const PlanLibrary& library)
{
    const graph::Graph& graph = library.graph();
    uint64_t budget = library.context().sram_budget();
    // Gather heavy ops of the busiest layer, cheapest-space first.
    uint64_t avg = graph.avg_hbm_bytes();
    std::map<int, std::vector<uint64_t>> per_layer;
    for (const auto& op : graph.ops()) {
        if (op.layer >= 0 && op.hbm_heavy(avg)) {
            per_layer[op.layer].push_back(
                min_preload_space(library, op.id));
        }
    }
    int best = 0;
    for (auto& [layer, spaces] : per_layer) {
        std::sort(spaces.begin(), spaces.end());
        uint64_t used = 0;
        int fit = 0;
        for (uint64_t s : spaces) {
            if (used + s > budget) {
                break;
            }
            used += s;
            ++fit;
        }
        best = std::max(best, fit);
    }
    return best;
}

std::vector<std::vector<int>>
generate_candidate_orders(const PlanLibrary& library, int max_orders,
                          ReorderStats* stats)
{
    const graph::Graph& graph = library.graph();
    const int n = graph.size();

    std::vector<int> identity(n);
    for (int i = 0; i < n; ++i) {
        identity[i] = i;
    }
    std::vector<std::vector<int>> orders;
    orders.push_back(identity);

    // Heavy operators of the first full layer form the permutation
    // template; the same relative order maps onto every layer.
    uint64_t avg = graph.avg_hbm_bytes();
    std::vector<int> heavy0;
    for (int id : graph.ops_in_layer(0)) {
        if (graph.op(id).hbm_heavy(avg)) {
            heavy0.push_back(id);
        }
    }
    const int h = static_cast<int>(heavy0.size());
    const int c = heavy_ops_fit_on_chip(library);
    if (stats != nullptr) {
        stats->heavy_per_layer = h;
        stats->heavy_fit_on_chip = c;
    }
    if (h < 2 || c < 1) {
        if (stats != nullptr) {
            stats->candidates = static_cast<int>(orders.size());
        }
        return orders;
    }

    // Heavy slots per layer, by layer-local position.
    std::vector<std::vector<int>> heavy_slots(graph.num_layers());
    for (int layer = 0; layer < graph.num_layers(); ++layer) {
        for (int id : graph.ops_in_layer(layer)) {
            if (graph.op(id).hbm_heavy(avg)) {
                heavy_slots[layer].push_back(id);
            }
        }
    }

    // Enumerate permutations of 0..h-1 whose per-element displacement
    // stays within the memory-derived bound: displacing an operator by
    // d forces d+1 heavy footprints to coexist, so d < C.
    const int max_disp = std::max(1, c - 1);
    std::vector<int> perm(h);
    for (int i = 0; i < h; ++i) {
        perm[i] = i;
    }
    while (std::next_permutation(perm.begin(), perm.end())) {
        bool ok = true;
        for (int i = 0; i < h && ok; ++i) {
            ok = std::abs(perm[i] - i) <= max_disp;
        }
        if (!ok) {
            continue;
        }
        // Build the full order: identity with each layer's heavy slots
        // permuted the same way. Only layers with the template's slot
        // count participate (the last partial layer stays in order).
        std::vector<int> order = identity;
        for (const auto& slots : heavy_slots) {
            if (static_cast<int>(slots.size()) != h) {
                continue;
            }
            // Position slots[i] receives the op that originally sat at
            // slots[perm[i]].
            for (int i = 0; i < h; ++i) {
                order[slots[i]] = slots[perm[i]];
            }
        }
        orders.push_back(std::move(order));
        if (static_cast<int>(orders.size()) >= max_orders) {
            break;
        }
    }

    if (stats != nullptr) {
        stats->candidates = static_cast<int>(orders.size());
    }
    return orders;
}

std::vector<double>
score_candidate_orders(const PlanLibrary& library,
                       const std::vector<std::vector<int>>& orders,
                       const ScheduleOptions& score_opts,
                       const sim::Machine& machine, util::ThreadPool* pool,
                       ScheduleWork* work)
{
    const graph::Graph& graph = library.graph();
    const plan::PlanContext& ctx = library.context();
    const InductiveScheduler sched(library);
    std::vector<double> scores(orders.size(),
                               std::numeric_limits<double>::infinity());
    std::vector<ScheduleWork> slots(orders.size());
    util::ThreadPool::run(pool, static_cast<int>(orders.size()),
                          [&](int i) {
        auto result = sched.schedule(orders[i], score_opts, &slots[i]);
        if (!result) {
            return;  // invalid order: stays at infinity
        }
        scores[i] =
            runtime::run_plan(machine, graph, *result, ctx).total_time;
    });
    if (work != nullptr) {
        for (const ScheduleWork& slot : slots) {
            *work += slot;
        }
    }
    return scores;
}

}  // namespace elk::compiler
