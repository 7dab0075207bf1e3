#include "elk/schedule_ir.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "util/bits.h"
#include "util/logging.h"

namespace elk::compiler {

double
ExecutionPlan::reorder_edit_distance() const
{
    if (ops.empty() || preload_order.empty()) {
        return 0.0;
    }
    double moved = 0.0;
    double total = 0.0;
    for (size_t r = 0; r < preload_order.size(); ++r) {
        double d = std::fabs(static_cast<double>(preload_order[r]) -
                             static_cast<double>(r));
        if (d > 0) {
            moved += d;
            total += 1.0;
        }
    }
    return total > 0 ? moved / total : 0.0;
}

namespace {

using util::append_bits;

void
append_exec_bits(std::string& out, const plan::ExecPlan& p)
{
    append_bits(out, p.parts_rows);
    append_bits(out, p.parts_cols);
    append_bits(out, p.parts_k);
    append_bits(out, p.repl_a);
    append_bits(out, p.repl_w);
    append_bits(out, p.tile_rows);
    append_bits(out, p.tile_cols);
    append_bits(out, p.tile_k);
    append_bits(out, p.a_need);
    append_bits(out, p.w_need);
    append_bits(out, p.out_bytes);
    append_bits(out, p.group_a);
    append_bits(out, p.group_w);
    append_bits(out, p.exec_space);
    append_bits(out, p.fetch_bytes);
    append_bits(out, p.reduce_bytes);
    append_bits(out, p.hbm_stream_bytes);
    append_bits(out, p.compute_time);
    append_bits(out, p.exec_time);
    append_bits(out, p.fabric_time);
}

void
append_preload_bits(std::string& out, const plan::PreloadPlan& p)
{
    append_bits(out, p.gamma);
    append_bits(out, p.preload_space);
    append_bits(out, p.distribute_bytes);
    append_bits(out, p.distribute_time);
    append_bits(out, p.noc_delivery_bytes);
    append_bits(out, p.dram_fraction);
    append_bits(out, p.delivery_overhead_time);
}

}  // namespace

std::string
ExecutionPlan::serialize_bits() const
{
    std::string out;
    out.reserve(64 + ops.size() * 256);
    out += mode;
    out.push_back('\0');
    append_bits(out, static_cast<uint64_t>(ops.size()));
    for (const auto& op : ops) {
        append_bits(out, op.op_id);
        append_exec_bits(out, op.exec);
        append_preload_bits(out, op.preload);
        append_bits(out, op.est_exec_time);
        append_bits(out, op.est_preload_time);
    }
    append_bits(out, static_cast<uint64_t>(preload_order.size()));
    for (int r : preload_order) {
        append_bits(out, r);
    }
    append_bits(out, static_cast<uint64_t>(issue_slot.size()));
    for (int s : issue_slot) {
        append_bits(out, s);
    }
    append_bits(out, est_total_time);
    return out;
}

namespace {

/// Signature key for plan sharing across identical operators: every
/// operator field plan::compute_plan_metrics and the preload
/// enumeration read.
using Signature = std::tuple<int, long, long, long, long, uint64_t,
                             uint64_t, uint64_t, long, int>;

Signature
signature(const graph::Operator& op)
{
    return {static_cast<int>(op.kind), op.batch, op.m, op.n, op.k,
            op.param_bytes, op.stream_bytes, op.act_out_bytes,
            op.w_share_rows, op.dtype_bytes};
}

}  // namespace

PlanLibrary::PlanLibrary(const graph::Graph& graph,
                         const plan::PlanContext& ctx,
                         util::ThreadPool* pool)
    : graph_(graph), ctx_(ctx)
{
    // Signature discovery is a cheap serial scan that fixes the front
    // order (first-seen); the expensive per-signature enumerations
    // then fan out over the pool into pre-sized slots.
    std::map<Signature, int> seen;
    std::vector<const graph::Operator*> reps;
    signature_of_.reserve(graph.size());
    for (const auto& op : graph.ops()) {
        const Signature key = signature(op);
        auto it = seen.find(key);
        if (it == seen.end()) {
            int idx = static_cast<int>(reps.size());
            reps.push_back(&op);
            seen.emplace(key, idx);
            signature_of_.push_back(idx);
        } else {
            signature_of_.push_back(it->second);
        }
    }

    fronts_ = plan::enumerate_exec_fronts(reps, ctx_, pool,
                                          &enumeration_stats_);

    // Eagerly derive every (signature, exec plan) preload front so the
    // library is immutable afterwards — the scheduler's inner loops
    // and the parallel order-scoring pass read without locks.
    preload_fronts_.resize(fronts_.size());
    std::vector<std::pair<int, int>> pairs;
    for (size_t s = 0; s < fronts_.size(); ++s) {
        preload_fronts_[s].resize(fronts_[s].size());
        for (size_t e = 0; e < fronts_[s].size(); ++e) {
            pairs.emplace_back(static_cast<int>(s), static_cast<int>(e));
        }
    }
    util::ThreadPool::run(pool, static_cast<int>(pairs.size()),
                          [&](int i) {
        auto [s, e] = pairs[i];
        preload_fronts_[s][e] = plan::enumerate_preload_plans(
            *reps[s], fronts_[s][e], ctx_);
    });
}

void
PlanLibrary::check_id(const char* what, int id) const
{
    if (id < 0 || id >= static_cast<int>(signature_of_.size())) {
        util::panic(std::string(what) + ": operator id " +
                    std::to_string(id) + " out of range (graph has " +
                    std::to_string(signature_of_.size()) + " operators)");
    }
}

void
PlanLibrary::bad_exec_lookup(int id) const
{
    check_id("exec_plans", id);
    util::panic("exec_plans: operator '" + graph_.op(id).name +
                "' has an empty execute-state Pareto front — no "
                "partition plan fits the chip");
}

void
PlanLibrary::bad_preload_lookup(int id, int exec_idx) const
{
    check_id("preload_plans", id);
    const auto& per_exec = preload_fronts_[signature_of_[id]];
    if (exec_idx < 0 || exec_idx >= static_cast<int>(per_exec.size())) {
        util::panic("preload_plans: exec plan index " +
                    std::to_string(exec_idx) + " out of range for '" +
                    graph_.op(id).name + "' (front has " +
                    std::to_string(per_exec.size()) + " plans)");
    }
    util::panic("preload_plans: operator '" + graph_.op(id).name +
                "' has an empty preload-state Pareto front");
}

int
PlanLibrary::max_plans_per_op() const
{
    size_t best = 0;
    for (const auto& front : fronts_) {
        best = std::max(best, front.size());
    }
    return static_cast<int>(best);
}

}  // namespace elk::compiler
