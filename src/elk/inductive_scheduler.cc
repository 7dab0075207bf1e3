#include "elk/inductive_scheduler.h"

#include <algorithm>
#include <limits>
#include <string>

#include "cost/hbm_cost.h"
#include "util/logging.h"

namespace elk::compiler {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Weighted-cost starting index on a preload front.
int
policy_start(const std::vector<plan::PreloadPlan>& front, double weight)
{
    int best = 0;
    double best_cost = front[0].distribute_time +
                       weight * front[0].delivery_overhead_time;
    for (int i = 1; i < static_cast<int>(front.size()); ++i) {
        double cost = front[i].distribute_time +
                      weight * front[i].delivery_overhead_time;
        if (cost < best_cost) {
            best_cost = cost;
            best = i;
        }
    }
    return best;
}

}  // namespace

double
InductiveScheduler::preload_duration(int op_id,
                                     const plan::PreloadPlan& preload) const
{
    const plan::PlanContext& ctx = library_.context();
    const graph::Operator& op = library_.graph().op(op_id);
    if (op.hbm_bytes() == 0) {
        return 0.0;
    }
    double dram = cost::hbm_load_time(
        static_cast<double>(op.hbm_bytes()) * preload.dram_fraction,
        *ctx.cfg);
    double delivery_capacity =
        ctx.traffic->hbm_delivery_capacity() * ctx.cfg->num_chips;
    double delivery = preload.noc_delivery_bytes / delivery_capacity;
    return std::max(dram, delivery);
}

std::vector<int>
InductiveScheduler::anchor_table(double overhead_weight) const
{
    std::vector<int> table;
    for (const auto& per_exec : library_.preload_fronts()) {
        for (const auto& front : per_exec) {
            table.push_back(policy_start(front, overhead_weight));
        }
    }
    return table;
}

std::optional<ExecutionPlan>
InductiveScheduler::schedule_in_order(const ScheduleOptions& opts,
                                      ScheduleWork* work) const
{
    std::vector<int> order(library_.graph().size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
    }
    return schedule(order, opts, work);
}

std::optional<ExecutionPlan>
InductiveScheduler::schedule(const std::vector<int>& preload_order,
                             const ScheduleOptions& opts,
                             ScheduleWork* work) const
{
    ScheduleWork unused;
    ScheduleWork& counted = work != nullptr ? *work : unused;
    const graph::Graph& graph = library_.graph();
    const plan::PlanContext& ctx = library_.context();
    const uint64_t budget = ctx.sram_budget();
    const int n = graph.size();
    util::check(static_cast<int>(preload_order.size()) == n,
                "schedule: preload order must cover all operators");
    {
        std::vector<char> seen(n, 0);
        for (int op : preload_order) {
            if (op < 0 || op >= n || seen[op]) {
                util::panic("schedule: preload order is not a permutation "
                            "of operator ids 0.." +
                            std::to_string(n - 1) + " (id " +
                            std::to_string(op) +
                            (op < 0 || op >= n ? " out of range)"
                                               : " repeated)"));
            }
            seen[op] = 1;
        }
    }

    // Optional truncation for cheap candidate-order scoring (§4.4).
    const int m =
        opts.limit_ops > 0 ? std::min(opts.limit_ops, n) : n;
    std::vector<int> order;
    order.reserve(m);
    for (int op : preload_order) {
        if (op < m) {
            order.push_back(op);
        }
    }

    // Position of each operator in the preload order.
    std::vector<int> pos(m);
    for (int r = 0; r < m; ++r) {
        pos[order[r]] = r;
    }
    // lo[i]: minimum frontier before execute(i) — every operator that
    // executes at or before i must already be issued.
    std::vector<int> lo(m);
    int running = -1;
    for (int i = 0; i < m; ++i) {
        running = std::max(running, pos[i]);
        lo[i] = running + 1;
    }

    // --- backward induction state ---
    std::vector<int> exec_choice(m, 0);
    // Preload plan index per committed op. It starts at the op's policy
    // anchor when the op commits and only tightens afterwards, so it is
    // also the allocator floor max(anchor, tightening).
    std::vector<int> preload_choice(m, 0);
    std::vector<double> t_exe_start(m, 0.0);
    std::vector<double> t_pre_start(m, 0.0);  // by position
    std::vector<int> slot_of_pos(m, 0);
    int frontier_next = m;  // F_{i+1} of the step being processed

    // ALAP preload starts of positions [first, end) into out[r - first],
    // chained backward from the start of position end.
    auto chain_preloads = [&](int first, int end, double* out) {
        double next_start = end < m ? t_pre_start[end] : kInf;
        for (int r = end - 1; r >= first; --r) {
            int j = order[r];
            const auto& pre_front =
                library_.preload_plans(j, exec_choice[j]);
            double d = preload_duration(j, pre_front[preload_choice[j]]);
            double start = std::min(next_start, t_exe_start[j]) - d;
            out[r - first] = start;
            next_start = start;
        }
    };

    // Live set at the smallest frontier lo[i]: the positions before
    // lo[i] whose ops execute after i, ascending. It carries over from
    // step to step: lo[i] only shrinks as i falls, which drops a suffix,
    // and op i + 1 is the one op that can join.
    std::vector<int> live_at_lo;
    // Per-step scratch: the live set of the frontier under test (in
    // preload position order), the step's preload chain, and op i's
    // policy anchor per exec plan (-1 = not computed yet).
    std::vector<int> live, live_exec, live_floor, own_anchor;
    std::vector<double> chain;
    AllocatorScratch alloc_scratch;

    for (int i = m - 1; i >= 0; --i) {
        const int first = lo[i];
        if (first > frontier_next) {
            return std::nullopt;  // order forces issue after own execute
        }

        // Everything a candidate frontier f in [first, F_{i+1}] reads is
        // fixed for the step: the chain recurrence runs backward from
        // F_{i+1}, so f's next preload start is chain[f - first], and
        // the live set only grows by order[f - 1] as f advances (every
        // position from lo[i] on holds an op executing after i).
        chain.resize(frontier_next - first);
        chain_preloads(first, frontier_next, chain.data());
        const double chain_end =
            frontier_next < m ? t_pre_start[frontier_next] : kInf;
        const double exec_end_bound = i + 1 < m ? t_exe_start[i + 1] : 0.0;
        own_anchor.assign(library_.exec_plans(i).size(), -1);

        while (!live_at_lo.empty() && live_at_lo.back() >= first) {
            live_at_lo.pop_back();
        }
        if (i + 1 < m && pos[i + 1] < first) {
            live_at_lo.insert(std::upper_bound(live_at_lo.begin(),
                                               live_at_lo.end(), pos[i + 1]),
                              pos[i + 1]);
        }
        // Live set: issued before execute(i), not yet executed.
        // floor_space is the allocator's starting footprint: op i at
        // exec plan 0 plus every live op's preload plan at its floor.
        const auto& exec_front = library_.exec_plans(i);
        uint64_t floor_space = exec_front[0].exec_space;
        live.clear();
        live_exec.clear();
        live_floor.clear();
        auto admit = [&](int r) {
            int j = order[r];
            live.push_back(j);
            live_exec.push_back(exec_choice[j]);
            live_floor.push_back(preload_choice[j]);
            floor_space += library_.preload_plans(j, exec_choice[j])
                               [preload_choice[j]].preload_space;
        };
        for (int r : live_at_lo) {
            admit(r);
        }

        double best_start = -kInf;
        int best_frontier = -1;
        AllocationChoice best_alloc;

        for (int frontier = first; frontier <= frontier_next; ++frontier) {
            if (frontier > first) {
                admit(frontier - 1);
            }
            if (static_cast<int>(live.size()) > opts.max_window) {
                break;
            }
            ++counted.frontiers_tested;
            AllocationChoice alloc;
            if (floor_space <= budget) {
                // The allocator would downgrade nothing and return its
                // starting point: exec plan 0, every floor kept (left
                // out of preload_idx, as there is nothing to raise).
                alloc.feasible = true;
                alloc.exec_time = exec_front[0].exec_time;
            } else {
                ++counted.allocator_calls;
                alloc = allocator_.allocate(i, live, live_exec, live_floor,
                                            budget, alloc_scratch);
                if (!alloc.feasible) {
                    break;  // larger frontiers only add live operators
                }
            }

            double next_start = frontier < frontier_next
                                    ? chain[frontier - first]
                                    : chain_end;
            double exec_end = std::min(exec_end_bound, next_start);
            // The operator's own data-distribution phase runs on its
            // execute critical path; price it with the preload plan
            // this policy would anchor (later steps may still tighten
            // it under memory pressure).
            const auto& own_cand_front =
                library_.preload_plans(i, alloc.exec_idx);
            int& anchor = own_anchor[alloc.exec_idx];
            if (anchor < 0) {
                anchor = policy_start(own_cand_front, opts.overhead_weight);
            }
            double own_dist = own_cand_front[anchor].distribute_time;
            double cand_start =
                exec_end - (alloc.exec_time + own_dist);
            // Ties favor the larger frontier: preloading further ahead
            // is free when memory allows and absorbs timing jitter the
            // estimate cannot see (e.g., per-op HBM access latency).
            if (cand_start >= best_start) {
                best_start = cand_start;
                best_frontier = frontier;
                best_alloc = std::move(alloc);
            }
        }

        if (best_frontier < 0) {
            return std::nullopt;  // no feasible frontier: invalid order
        }

        // Commit the winning frontier.
        exec_choice[i] = best_alloc.exec_idx;
        preload_choice[i] = own_anchor[exec_choice[i]];
        t_exe_start[i] = best_start;
        // The allocator's picks cover the winning frontier's live-set
        // prefix; a frontier that fit at its floors raises none.
        for (size_t jj = 0; jj < best_alloc.preload_idx.size(); ++jj) {
            int j = live[jj];
            preload_choice[j] =
                std::max(preload_choice[j], best_alloc.preload_idx[jj]);
        }
        for (int r = best_frontier; r < frontier_next; ++r) {
            t_pre_start[r] = chain[r - first];
            slot_of_pos[r] = i + 1;
        }
        frontier_next = best_frontier;
    }

    // Positions before the final frontier are issued before execute(0)
    // (slot 0, as initialized).
    chain_preloads(0, frontier_next, t_pre_start.data());

    // --- assemble the plan ---
    ExecutionPlan plan;
    plan.ops.resize(m);
    for (int i = 0; i < m; ++i) {
        OpSchedule& sched = plan.ops[i];
        sched.op_id = i;
        sched.exec = library_.exec_plans(i)[exec_choice[i]];
        const auto& pre_front = library_.preload_plans(i, exec_choice[i]);
        sched.preload = pre_front[std::min<int>(
            preload_choice[i], static_cast<int>(pre_front.size()) - 1)];
        sched.est_exec_time = sched.exec.exec_time;
        sched.est_preload_time = preload_duration(i, sched.preload);
    }
    plan.preload_order = order;
    plan.issue_slot.resize(m);
    for (int r = 0; r < m; ++r) {
        plan.issue_slot[r] = slot_of_pos[r];
    }
    double t_begin = m > 0 ? std::min(t_exe_start[0], t_pre_start[0]) : 0.0;
    plan.est_total_time = -t_begin;
    return plan;
}

}  // namespace elk::compiler
