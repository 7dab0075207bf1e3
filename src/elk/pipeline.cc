/**
 * @file
 * The standard pass pipeline (see pass.h): hardware analysis, plan
 * library, the four mode-gated scheduling passes, the §4.4 preload
 * order search, and the Table 2 statistics finalizer.
 *
 * Every parallel loop here follows the same shape: candidates are
 * enumerated serially in a fixed order, evaluated into per-candidate
 * slots (possibly across the pool), and merged by a serial
 * first-minimum scan — so the winning plan is bit-identical to what a
 * serial sweep in the same candidate order would pick.
 */
#include "elk/pass.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "elk/ideal.h"
#include "elk/inductive_scheduler.h"
#include "elk/plan_cache.h"
#include "elk/preload_reorder.h"
#include "runtime/executor.h"
#include "util/logging.h"

namespace elk::compiler {

std::string
mode_name(Mode mode)
{
    switch (mode) {
      case Mode::kBasic: return "Basic";
      case Mode::kStatic: return "Static";
      case Mode::kElkDyn: return "Elk-Dyn";
      case Mode::kElkFull: return "Elk-Full";
      case Mode::kIdeal: return "Ideal";
    }
    return "?";
}

int
max_fit_window(const PlanLibrary& library)
{
    const graph::Graph& graph = library.graph();
    const uint64_t budget = library.context().sram_budget();
    const int n = graph.size();
    // Minimum per-op preload space (smallest plan).
    std::vector<uint64_t> min_space(n);
    for (int i = 0; i < n; ++i) {
        min_space[i] = library.preload_plans(i, 0).back().preload_space;
    }
    // Longest window via two pointers.
    int best = 0;
    uint64_t sum = 0;
    int left = 0;
    for (int right = 0; right < n; ++right) {
        sum += min_space[right];
        while (sum > budget && left <= right) {
            sum -= min_space[left++];
        }
        best = std::max(best, right - left + 1);
    }
    return best;
}

std::vector<int>
sweep_windows(int max_window)
{
    std::vector<int> windows;
    for (int w = max_window; w >= 1; w = w * 2 / 3) {
        windows.push_back(w);
        if (w == 1) {
            break;
        }
    }
    return windows;
}

std::vector<int>
overhead_weight_groups(const InductiveScheduler& sched)
{
    std::vector<std::vector<int>> tables;
    std::vector<int> group;
    for (double weight : kOverheadWeights) {
        tables.push_back(sched.anchor_table(weight));
        int first = 0;
        while (tables[first] != tables.back()) {
            ++first;
        }
        group.push_back(first);
    }
    return group;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Layers of the model used to score candidate preload orders before
/// the winner is scheduled on the full model (compile-time pruning).
constexpr int kScoreLayers = 2;

/// Index of the first strict minimum of @p scores (-1 when every slot
/// is infinite) — the deterministic merge matching a serial sweep
/// that keeps the first strictly better candidate.
int
argmin_first(const std::vector<double>& scores)
{
    int best = -1;
    double best_score = kInf;
    for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
        if (scores[i] < best_score) {
            best_score = scores[i];
            best = i;
        }
    }
    return best;
}

/// Panics unless @p machine can stand in for @p cfg's analysis: the
/// same chip (by plan-cache signature) on the shared fabric.
void
check_machine_matches(const sim::Machine& machine,
                      const hw::ChipConfig& cfg)
{
    const std::string have = chip_signature(machine.config());
    const std::string want = chip_signature(cfg);
    if (have != want || machine.ideal_split_fabric()) {
        util::panic("hardware-analysis: the shared machine models chip " +
                    have +
                    (machine.ideal_split_fabric() ? " (split fabric)" : "") +
                    " but the compile targets chip " + want +
                    " (shared fabric); refusing to tune on the wrong "
                    "chip");
    }
}

// ---------------------------------------------------------------------------
// hardware-analysis

class HardwareAnalysisPass : public Pass {
  public:
    std::string name() const override { return "hardware-analysis"; }

    void
    run(CompileState& state) const override
    {
        util::check(state.graph != nullptr && state.cfg != nullptr,
                    "hardware-analysis: CompileState needs a graph and "
                    "a chip config");
        if (state.machine &&
            state.ctx.traffic == &state.machine->traffic()) {
            return;  // analysis products already built (state reuse)
        }
        state.cfg->validate();
        if (state.machine) {
            check_machine_matches(*state.machine, *state.cfg);
        } else {
            state.machine = std::make_shared<const sim::Machine>(*state.cfg);
        }
        if (state.ctx.exec_cost == nullptr) {
            state.ctx.set_cost_model(cost::make_analytic_cost());
        }
        state.ctx.cfg = state.cfg.get();
        state.ctx.traffic = &state.machine->traffic();
    }
};

// ---------------------------------------------------------------------------
// plan-library

class PlanLibraryPass : public Pass {
  public:
    std::string name() const override { return "plan-library"; }

    void
    run(CompileState& state) const override
    {
        if (state.library) {
            return;  // already built (state reuse across compiles)
        }
        util::check(state.ctx.cfg != nullptr,
                    "plan-library: hardware-analysis must run first");
        state.library = std::make_shared<PlanLibrary>(
            *state.graph, state.ctx, state.pool);
    }
};

// ---------------------------------------------------------------------------
// schedule-basic

class BasicSchedulePass : public Pass {
  public:
    std::string name() const override { return "schedule-basic"; }

    bool
    enabled(const CompileState& state) const override
    {
        return state.opts.mode == Mode::kBasic;
    }

    void
    run(CompileState& state) const override
    {
        const graph::Graph& graph = *state.graph;
        const PlanLibrary& library = *state.library;
        const int n = graph.size();
        const uint64_t budget = state.ctx.sram_budget();
        ExecutionPlan plan;
        plan.mode = "Basic";
        plan.ops.resize(n);
        InductiveScheduler sched(library);

        for (int i = 0; i < n; ++i) {
            OpSchedule& op = plan.ops[i];
            op.op_id = i;
            // Basic maximizes the execution space: always the fastest
            // plan.
            op.exec = library.exec_plans(i)[0];
            op.est_exec_time = op.exec.exec_time;
        }
        for (int i = 0; i < n; ++i) {
            OpSchedule& op = plan.ops[i];
            // The remaining space while the *previous* operator
            // executes bounds this operator's preload footprint.
            uint64_t prev_exec =
                i > 0 ? plan.ops[i - 1].exec.exec_space : 0;
            uint64_t room = budget > prev_exec ? budget - prev_exec : 0;
            const auto& front = library.preload_plans(i, 0);
            int pick = static_cast<int>(front.size()) - 1;
            for (int c = 0; c < static_cast<int>(front.size()); ++c) {
                if (front[c].preload_space <= room) {
                    pick = c;
                    break;
                }
            }
            op.preload = front[pick];
            op.est_preload_time = sched.preload_duration(i, op.preload);
            plan.preload_order.push_back(i);
            plan.issue_slot.push_back(std::max(0, i - 1));
        }
        double exec_sum = 0.0;
        for (const auto& op : plan.ops) {
            exec_sum += op.est_exec_time + op.est_preload_time;
        }
        plan.est_total_time = exec_sum;
        state.plan = std::move(plan);
    }
};

// ---------------------------------------------------------------------------
// schedule-static

/**
 * The Static (T10-extended) schedule: fixed preload/execution split,
 * best static sizes searched offline (§6.1). Shared with schedule-elk,
 * which keeps the uniform split as a never-regress baseline. Each
 * (region, policy) candidate is built and simulated independently —
 * the parallel fan-out — and merged by first-minimum.
 */
ExecutionPlan
schedule_static(CompileState& state)
{
    const graph::Graph& graph = *state.graph;
    const PlanLibrary& library = *state.library;
    const plan::PlanContext& ctx = state.ctx;
    const CompileOptions& opts = state.opts;
    const int n = graph.size();
    const uint64_t budget = ctx.sram_budget();
    const InductiveScheduler sched(library);

    // Candidate static preload-region sizes and preload-state policy
    // (paper §6.1: all-largest or all-smallest footprint, whichever is
    // faster; best static sizes for the whole model). A caller-fixed
    // region skips the size search (used by the Fig. 6 sweep).
    std::vector<uint64_t> regions;
    if (opts.static_region > 0) {
        regions.push_back(std::min(opts.static_region, budget - 1));
    } else {
        for (uint64_t kb : {64, 96, 128, 192, 256, 320, 384, 448}) {
            uint64_t r = kb * 1024;
            if (r < budget) {
                regions.push_back(r);
            }
        }
    }
    std::vector<std::pair<uint64_t, bool>> candidates;
    for (uint64_t region : regions) {
        for (bool use_max : {true, false}) {
            candidates.emplace_back(region, use_max);
        }
    }

    const sim::Machine& machine = *state.machine;
    std::vector<ExecutionPlan> plans(candidates.size());
    std::vector<double> times(candidates.size(), kInf);

    util::ThreadPool::run(state.pool, static_cast<int>(candidates.size()),
                          [&](int c) {
        const auto [region, use_max] = candidates[c];
        ExecutionPlan plan;
        plan.mode = "Static";
        plan.ops.resize(n);
        for (int i = 0; i < n; ++i) {
            OpSchedule& op = plan.ops[i];
            op.op_id = i;
            // Fastest plan within the fixed execution region; an
            // operator whose smallest plan exceeds it temporarily
            // borrows from the preload region (the region is a
            // policy, not a hardware fence).
            const auto& front = library.exec_plans(i);
            int pick = static_cast<int>(front.size()) - 1;
            for (int e = 0; e < static_cast<int>(front.size()); ++e) {
                if (front[e].exec_space <= budget - region) {
                    pick = e;
                    break;
                }
            }
            op.exec = front[pick];
            op.est_exec_time = op.exec.exec_time;
            const auto& pre = library.preload_plans(i, pick);
            int k = use_max ? 0 : static_cast<int>(pre.size()) - 1;
            // The chosen footprint must fit the region at all.
            while (k < static_cast<int>(pre.size()) - 1 &&
                   pre[k].preload_space > region) {
                ++k;
            }
            op.preload = pre[k];
            op.est_preload_time = sched.preload_duration(i, op.preload);
        }
        // Forward-fill preload issue slots into the fixed region.
        std::vector<std::pair<int, uint64_t>> live;  // (op, space)
        uint64_t avail = region;
        int next = 0;
        for (int slot = 0; slot < n && next < n; ++slot) {
            // Free preloads whose operators have executed.
            while (!live.empty() && live.front().first < slot) {
                avail += live.front().second;
                live.erase(live.begin());
            }
            while (next < n) {
                uint64_t space = plan.ops[next].preload.preload_space;
                bool must_issue = next == slot;
                if (!must_issue && space > avail) {
                    break;
                }
                avail = space > avail ? 0 : avail - space;
                live.emplace_back(next, space);
                plan.preload_order.push_back(next);
                plan.issue_slot.push_back(slot);
                ++next;
            }
        }
        for (; next < n; ++next) {
            plan.preload_order.push_back(next);
            plan.issue_slot.push_back(next);
        }

        times[c] = runtime::run_plan(machine, graph, plan, ctx).total_time;
        plan.est_total_time = times[c];
        plans[c] = std::move(plan);
    });

    int best = argmin_first(times);
    util::check(best >= 0, "Static: no feasible configuration");
    return std::move(plans[best]);
}

class StaticSchedulePass : public Pass {
  public:
    std::string name() const override { return "schedule-static"; }

    bool
    enabled(const CompileState& state) const override
    {
        return state.opts.mode == Mode::kStatic;
    }

    void
    run(CompileState& state) const override
    {
        state.plan = schedule_static(state);
    }
};

// ---------------------------------------------------------------------------
// schedule-elk

class ElkSchedulePass : public Pass {
  public:
    std::string name() const override { return "schedule-elk"; }

    bool
    enabled(const CompileState& state) const override
    {
        return state.opts.mode == Mode::kElkDyn ||
               state.opts.mode == Mode::kElkFull;
    }

    void
    run(CompileState& state) const override
    {
        const graph::Graph& graph = *state.graph;
        const PlanLibrary& library = *state.library;
        const plan::PlanContext& ctx = state.ctx;
        const CompileOptions& opts = state.opts;
        const InductiveScheduler sched(library);
        ScheduleOptions sopts;
        sopts.max_window = opts.max_window;

        // The scheduler's additive estimate cannot see global fabric
        // contention, so the preload depth cap is itself a tuning
        // knob: schedule the identity order at a few caps and keep
        // the best simulated plan (offline tuning, like the Static
        // size search). Candidate c is (window c / kWeights, weight
        // c % kWeights). A weight only picks policy anchors, so a
        // weight whose anchor table equals an earlier weight's
        // schedules the same plan: only the first weight of each
        // group is scheduled and simulated — the parallel fan-out —
        // and the rest copy its time. A copy sits after its original,
        // so the first-minimum merge never picks it.
        constexpr int kWeights = static_cast<int>(std::size(kOverheadWeights));
        const std::vector<int> group = overhead_weight_groups(sched);
        std::vector<ScheduleOptions> candidates;
        std::vector<int> scheduled;  // candidate indices that run
        for (int w : sweep_windows(opts.max_window)) {
            for (int k = 0; k < kWeights; ++k) {
                if (group[k] == k) {
                    scheduled.push_back(static_cast<int>(candidates.size()));
                }
                ScheduleOptions wopts = sopts;
                wopts.max_window = w;
                wopts.overhead_weight = kOverheadWeights[k];
                candidates.push_back(wopts);
            }
        }

        const sim::Machine& machine = *state.machine;
        std::vector<std::optional<ExecutionPlan>> plans(candidates.size());
        std::vector<double> times(candidates.size(), kInf);
        std::vector<ScheduleWork> work(scheduled.size());
        util::ThreadPool::run(state.pool, static_cast<int>(scheduled.size()),
                              [&](int s) {
            const int c = scheduled[s];
            auto cand = sched.schedule_in_order(candidates[c], &work[s]);
            if (!cand) {
                return;
            }
            times[c] = runtime::run_plan(machine, graph, *cand, ctx)
                           .total_time;
            plans[c] = std::move(cand);
        });
        for (int c = 0; c < static_cast<int>(candidates.size()); ++c) {
            const int k = c % kWeights;
            times[c] = times[c - k + group[k]];
        }
        for (const ScheduleWork& w : work) {
            state.stats.add(w);
        }

        int best = argmin_first(times);
        util::check(best >= 0, "Elk: identity preload order infeasible");
        sopts = candidates[best];
        std::optional<ExecutionPlan> in_order = std::move(plans[best]);
        // times[best] is *in_order's simulated total time already.
        double in_order_time = times[best];

        // The uniform preload/execution split is one more point of
        // Elk's trade-off space (a fixed frontier with fixed spaces);
        // include it in the sweep so the dynamic search never
        // regresses below it. schedule_static stores its winner's
        // simulated time in est_total_time.
        ExecutionPlan uniform = schedule_static(state);
        if (uniform.est_total_time < in_order_time) {
            in_order_time = uniform.est_total_time;
            in_order = std::move(uniform);
        }
        in_order->mode = "Elk-Dyn";
        if (state.opts.mode == Mode::kElkDyn) {
            state.stats.orders_tested = 1;
        }
        state.stats.candidates_scheduled =
            static_cast<int>(scheduled.size());
        state.tuned_schedule = sopts;
        state.tuned_sim_time = in_order_time;
        state.plan = std::move(in_order);
    }
};

// ---------------------------------------------------------------------------
// preload-order-search

class PreloadOrderSearchPass : public Pass {
  public:
    std::string name() const override { return "preload-order-search"; }

    bool
    enabled(const CompileState& state) const override
    {
        return state.opts.mode == Mode::kElkFull;
    }

    void
    run(CompileState& state) const override
    {
        util::check(state.plan.has_value() &&
                        state.tuned_schedule.has_value() &&
                        state.tuned_sim_time.has_value(),
                    "preload-order-search: schedule-elk must run first");
        const graph::Graph& graph = *state.graph;
        const PlanLibrary& library = *state.library;
        const plan::PlanContext& ctx = state.ctx;
        const CompileOptions& opts = state.opts;
        const ScheduleOptions& sopts = *state.tuned_schedule;
        const InductiveScheduler sched(library);

        // Elk-Full: evaluate candidate preload orders on a model
        // prefix, then schedule the full model with the winner (§4.4).
        ReorderStats rstats;
        auto orders =
            generate_candidate_orders(library, opts.max_orders, &rstats);
        state.stats.heavy_per_layer = rstats.heavy_per_layer;
        state.stats.heavy_fit = rstats.heavy_fit_on_chip;
        state.stats.orders_tested = rstats.candidates;

        // Score on a prefix of the model.
        int prefix_ops = 0;
        for (const auto& op : graph.ops()) {
            if (op.layer >= 0 && op.layer < kScoreLayers) {
                prefix_ops = op.id + 1;
            }
        }
        if (prefix_ops == 0) {
            prefix_ops = graph.size();
        }
        ScheduleOptions score_opts = sopts;
        score_opts.limit_ops = prefix_ops;

        // Each candidate order is scheduled on the prefix and
        // *simulated* (the paper: "applies operator scheduling
        // policies and conducts a performance estimation") — the
        // simulator sees the interconnect contention that reordering
        // is meant to avoid. The per-order scoring fans out over the
        // pool; the first-minimum merge keeps the serial winner.
        const sim::Machine& machine = *state.machine;
        ScheduleWork work;
        std::vector<double> scores = score_candidate_orders(
            library, orders, score_opts, machine, state.pool, &work);
        int best = argmin_first(scores);

        // Schedule the winner on the full model; keep the in-order
        // plan unless the winner actually wins end to end. Candidate
        // 0 is the identity order: its full-model schedule is the
        // plan schedule-elk already simulated (or the uniform split
        // beat that plan), so it would rebuild state.plan and lose or
        // tie against it — keep state.plan without re-scheduling.
        ExecutionPlan chosen = std::move(*state.plan);
        if (best > 0) {
            if (std::optional<ExecutionPlan> full =
                    sched.schedule(orders[best], sopts, &work)) {
                double full_time =
                    runtime::run_plan(machine, graph, *full, ctx)
                        .total_time;
                // schedule-elk already simulated the identity plan.
                double identity_time = *state.tuned_sim_time;
                if (!(identity_time < full_time)) {
                    chosen = std::move(*full);
                }
            }
        }
        chosen.mode = "Elk-Full";
        state.plan = std::move(chosen);
        state.stats.add(work);
    }
};

// ---------------------------------------------------------------------------
// schedule-ideal

class IdealSchedulePass : public Pass {
  public:
    std::string name() const override { return "schedule-ideal"; }

    bool
    enabled(const CompileState& state) const override
    {
        return state.opts.mode == Mode::kIdeal;
    }

    void
    run(CompileState& state) const override
    {
        state.plan = build_ideal_plan(*state.library);
    }
};

// ---------------------------------------------------------------------------
// finalize

class FinalizePass : public Pass {
  public:
    std::string name() const override { return "finalize"; }

    void
    run(CompileState& state) const override
    {
        util::check(state.library != nullptr,
                    "finalize: plan-library must run first");
        state.stats.n_ops = state.graph->size();
        state.stats.max_plans = state.library->max_plans_per_op();
        const plan::EnumerationStats& enumerated =
            state.library->enumeration_stats();
        state.stats.exec_points = enumerated.exec_points;
        state.stats.tied_fronts = enumerated.tied_fronts;
        state.stats.max_fit_window = max_fit_window(*state.library);
        if (state.stats.heavy_per_layer == 0) {
            state.stats.heavy_per_layer =
                state.graph->hbm_heavy_per_layer();
        }
        if (state.stats.heavy_fit == 0) {
            state.stats.heavy_fit = heavy_ops_fit_on_chip(*state.library);
        }
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// CompilerPipeline

CompilerPipeline&
CompilerPipeline::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
CompilerPipeline::pass_names() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto& pass : passes_) {
        names.push_back(pass->name());
    }
    return names;
}

bool
CompilerPipeline::selected(const Pass& pass, const CompileState& state) const
{
    if (!pass.enabled(state)) {
        return false;
    }
    const auto& filter = state.opts.pass_filter;
    if (filter.empty()) {
        return true;
    }
    return std::find(filter.begin(), filter.end(), pass.name()) !=
           filter.end();
}

std::vector<std::string>
CompilerPipeline::enabled_passes(const CompileState& state) const
{
    std::vector<std::string> names;
    for (const auto& pass : passes_) {
        if (selected(*pass, state)) {
            names.push_back(pass->name());
        }
    }
    return names;
}

void
CompilerPipeline::run(CompileState& state) const
{
    for (const auto& pass : passes_) {
        if (selected(*pass, state)) {
            pass->run(state);
        }
    }
}

void
CompilerPipeline::run_prefix(CompileState& state,
                             const std::string& last_pass) const
{
    bool found = false;
    for (const auto& pass : passes_) {
        if (selected(*pass, state)) {
            pass->run(state);
        }
        if (pass->name() == last_pass) {
            found = true;
            break;
        }
    }
    if (!found) {
        util::panic("run_prefix: no pass named '" + last_pass + "'");
    }
}

void
CompilerPipeline::validate_filter(
    const std::vector<std::string>& filter) const
{
    if (filter.empty()) {
        return;
    }
    auto names = pass_names();
    for (const auto& want : filter) {
        if (std::find(names.begin(), names.end(), want) == names.end()) {
            std::string all;
            for (const auto& n : names) {
                all += (all.empty() ? "" : ", ") + n;
            }
            util::fatal("unknown pass '" + want + "' (available: " + all +
                        ")");
        }
    }
}

CompilerPipeline
CompilerPipeline::standard()
{
    CompilerPipeline pipeline;
    pipeline.add(std::make_unique<HardwareAnalysisPass>())
        .add(std::make_unique<PlanLibraryPass>())
        .add(std::make_unique<BasicSchedulePass>())
        .add(std::make_unique<StaticSchedulePass>())
        .add(std::make_unique<ElkSchedulePass>())
        .add(std::make_unique<PreloadOrderSearchPass>())
        .add(std::make_unique<IdealSchedulePass>())
        .add(std::make_unique<FinalizePass>());
    return pipeline;
}

}  // namespace elk::compiler
