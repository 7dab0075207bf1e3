#include "plan/plan_enumerator.h"

#include <algorithm>
#include <cmath>

#include "cost/transfer_cost.h"
#include "plan/pareto.h"
#include "util/logging.h"

namespace elk::plan {

namespace {

/// Ceiling division for positive longs.
long
cdiv(long a, long b)
{
    return (a + b - 1) / b;
}

/**
 * Candidate partition counts for a dimension of extent @p dim with at
 * most @p max_parts parts: 1, powers of two and 3*2^i, plus the exact
 * extent. This approximates the divisor enumeration real compilers use
 * while keeping the space tractable.
 */
std::vector<int>
candidate_parts(long dim, long max_parts)
{
    std::vector<int> parts;
    long limit = std::min(dim, max_parts);
    for (long p = 1; p <= limit; p *= 2) {
        parts.push_back(static_cast<int>(p));
        if (3 * p / 2 > p && 3 * p / 2 <= limit) {
            parts.push_back(static_cast<int>(3 * p / 2));
        }
    }
    if (limit >= 1 &&
        std::find(parts.begin(), parts.end(), static_cast<int>(limit)) ==
            parts.end()) {
        parts.push_back(static_cast<int>(limit));
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    return parts;
}

/// Residency (replication) factor candidates: powers of two <= group.
std::vector<int>
candidate_repl(int group)
{
    std::vector<int> repl;
    for (int r = 1; r <= group; r *= 2) {
        repl.push_back(r);
    }
    if (repl.back() != group) {
        repl.push_back(group);
    }
    return repl;
}

/// Streamed-operand operators (pure KV-cache consumers) may buffer
/// only a chunk of their W operand and consume the rest as it arrives
/// from HBM (flash-attention-style chunking); this caps the chunk
/// count so the double-buffered chunk stays efficient.
constexpr int kMaxStreamChunks = 64;

/// True when the operator's W operand comes from HBM (weights or
/// streams); such operands may be consumed in chunks straight from
/// HBM when the partition leaves them unshared across cores.
bool
w_from_hbm(const graph::Operator& op)
{
    return graph::uses_matmul_pipeline(op.kind) && op.hbm_bytes() > 0;
}

/// True for kinds that reduce along each output row (no column split).
bool
row_reduction_kind(graph::OpKind kind)
{
    return kind == graph::OpKind::kSoftmax ||
           kind == graph::OpKind::kLayerNorm;
}

/// Effective per-core bandwidth for peer exchange when @p cores_used
/// cores are active: endpoint link limited, with the fabric-wide
/// pattern capacity (mesh bisection etc.) as the global cap.
double
per_core_peer_bw(const PlanContext& ctx, long cores_used)
{
    double system_capacity =
        ctx.traffic->peer_exchange_capacity() * ctx.cfg->num_chips;
    double fair_share = system_capacity / std::max(cores_used, 1L);
    return std::min(ctx.cfg->inter_core_link_bw, fair_share);
}

/**
 * One feasible execute plan as enumeration keeps it: its two Pareto
 * axes (exec_space, time_cost()) and the decision variables that
 * rebuild the whole ExecPlan through compute_plan_metrics.
 */
struct PlanPoint {
    uint64_t exec_space;
    double time_cost;
    int parts_rows;
    int parts_cols;
    int parts_k;
    int repl_a;
    int repl_w;
};

}  // namespace

bool
compute_plan_metrics(const graph::Operator& op, const PlanContext& ctx,
                     ExecPlan& plan)
{
    const hw::ChipConfig& cfg = *ctx.cfg;
    const long rows = op.batch * op.m;
    const long cols = op.n;
    const long contraction = graph::uses_matmul_pipeline(op.kind) ? op.k : 1;

    if (plan.parts_rows > rows || plan.parts_cols > cols ||
        plan.parts_k > contraction) {
        return false;
    }
    if (plan.cores_used() > cfg.total_cores()) {
        return false;
    }

    plan.tile_rows = cdiv(rows, plan.parts_rows);
    plan.tile_cols = cdiv(cols, plan.parts_cols);
    plan.tile_k = cdiv(contraction, plan.parts_k);

    // Sharing groups. A blocks are reused across the column partitions
    // (each column group consumes the same rows of A); W blocks are
    // reused across the row partitions that consume the same weights.
    const long w_share = op.w_share_rows == 0 ? rows : op.w_share_rows;
    plan.group_a = plan.parts_cols;
    plan.group_w = static_cast<int>(
        std::max(1L, std::min<long>(plan.parts_rows,
                                    w_share / plan.tile_rows)));
    // An HBM-fed W whose partition leaves no sharing group is consumed
    // in repl_w chunks straight from HBM rather than fetched from
    // peers (flash-attention-style chunking for KV, column-chunked
    // weight streaming for giant weight matrices such as an LM head
    // that exceeds the chip), so repl_w is then bounded by the chunking
    // cap instead of the sharing group. When the partition does share W
    // across cores, the normal broadcast/peer path applies.
    const bool w_streams = w_from_hbm(op) && plan.group_w == 1;
    int repl_w_limit = w_streams ? kMaxStreamChunks : plan.group_w;
    if (plan.repl_a > plan.group_a || plan.repl_w > repl_w_limit) {
        return false;
    }

    // Per-core byte needs.
    const uint64_t dt = op.dtype_bytes;
    if (graph::uses_matmul_pipeline(op.kind)) {
        plan.a_need =
            static_cast<uint64_t>(plan.tile_rows) * plan.tile_k * dt;
        // The W operand (weights or KV stream) a core consumes: its
        // column/contraction slice of every distinct k x n W block its
        // rows touch. Rows within one w_share span reuse one block.
        double col_frac = static_cast<double>(plan.tile_cols) / cols;
        double k_frac = static_cast<double>(plan.tile_k) / contraction;
        double block_bytes = static_cast<double>(op.k) * op.n * dt;
        double blocks_touched =
            std::max(1.0, static_cast<double>(plan.tile_rows) / w_share);
        plan.w_need = static_cast<uint64_t>(
            blocks_touched * block_bytes * col_frac * k_frac);
        plan.w_need = std::max<uint64_t>(plan.w_need, 1);
    } else {
        plan.a_need =
            static_cast<uint64_t>(plan.tile_rows) * plan.tile_cols * dt;
        plan.w_need = op.hbm_bytes();  // small params, fully replicated
        plan.group_a = 1;
        plan.group_w = plan.parts_rows;
        if (plan.repl_a != 1) {
            return false;
        }
        if (plan.repl_w > plan.group_w) {
            return false;
        }
    }
    plan.out_bytes =
        static_cast<uint64_t>(plan.tile_rows) * plan.tile_cols * dt;

    // Execution space: resident shares + output (+ partial-sum buffer
    // when the contraction is split).
    uint64_t partial = plan.parts_k > 1 ? plan.out_bytes : 0;
    plan.exec_space = plan.a_need / plan.repl_a +
                      plan.w_need / plan.repl_w + plan.out_bytes + partial;
    if (plan.exec_space > ctx.sram_budget()) {
        return false;
    }

    // On-demand inter-core traffic during execution: the non-resident
    // fractions of A and W, rotated in from group peers (Fig. 3c). A
    // streamed W arrives from HBM, not from peers, so its non-resident
    // chunks cost no inter-core traffic.
    double fa = 1.0 / plan.repl_a;
    double fw = 1.0 / plan.repl_w;
    plan.fetch_bytes =
        (1.0 - fa) * static_cast<double>(plan.a_need) +
        (w_streams ? 0.0
                   : (1.0 - fw) * static_cast<double>(plan.w_need));
    // Partial-sum reduction along the k partitions (ring all-reduce).
    plan.reduce_bytes =
        plan.parts_k > 1
            ? 2.0 * (plan.parts_k - 1) / plan.parts_k *
                  static_cast<double>(plan.out_bytes)
            : 0.0;

    // Execution time estimate (per §4.3's cost model): per-core tile
    // compute, on-demand fetches over the interconnect, the SRAM
    // access contention of serving peers (which pauses local compute
    // on IPU-like cores), and the reduction exchange.
    cost::TileWork tile;
    tile.kind = op.kind;
    tile.rows = plan.tile_rows;
    tile.n = plan.tile_cols;
    tile.k = plan.tile_k;
    tile.dtype_bytes = op.dtype_bytes;
    plan.compute_time = ctx.exec_cost->tile_time(tile, cfg);

    double peer_bw = per_core_peer_bw(ctx, plan.cores_used());
    double fetch_time = cost::link_transfer_time(
        plan.fetch_bytes, peer_bw, cfg.link_latency_s,
        cfg.transfer_buffer_per_core);
    double serve_stall = plan.fetch_bytes / cfg.sram_read_bw;
    double reduce_time = cost::link_transfer_time(
        plan.reduce_bytes, peer_bw, cfg.link_latency_s,
        cfg.transfer_buffer_per_core);
    double inter_chip_time =
        cfg.num_chips > 1 && graph::uses_matmul_pipeline(op.kind)
            ? static_cast<double>(op.act_out_bytes) / cfg.inter_chip_bw
            : 0.0;

    // Chunked streamed operands consume their non-resident fraction
    // from HBM while executing; the phase cannot beat that stream.
    plan.hbm_stream_bytes =
        w_streams ? (1.0 - fw) * static_cast<double>(plan.w_need) : 0.0;
    double stream_time = plan.hbm_stream_bytes *
                         static_cast<double>(plan.cores_used()) /
                         cfg.hbm_total_bw;

    // The compute pipeline, the rotation fetches and the HBM stream
    // proceed concurrently within the execution phase (round
    // double-buffering), so the phase lasts as long as the slowest;
    // serving peers' reads stalls the local pipeline (contention 3 in
    // Fig. 2) and therefore adds to the compute side.
    plan.exec_time =
        std::max({plan.compute_time + serve_stall,
                  fetch_time + reduce_time, stream_time}) +
        inter_chip_time;
    double system_peer_capacity =
        ctx.traffic->peer_exchange_capacity() * cfg.num_chips;
    plan.fabric_time = (plan.fetch_bytes + plan.reduce_bytes) *
                       static_cast<double>(plan.cores_used()) /
                       system_peer_capacity;
    return true;
}

std::vector<ExecPlan>
enumerate_exec_plans(const graph::Operator& op, const PlanContext& ctx)
{
    const long rows = op.batch * op.m;
    const long cols = op.n;
    const long total_cores = ctx.cfg->total_cores();
    const bool mm = graph::uses_matmul_pipeline(op.kind);
    const long contraction = mm ? op.k : 1;

    // Feasible plans are kept as compact points (the two Pareto axes
    // plus the decision variables) in enumeration order; only the
    // front's survivors are rebuilt as full ExecPlans below. The sort
    // sees the same (space, time) keys in the same order as a sort of
    // whole plans would, so it makes the same comparisons and yields
    // the same permutation, exact ties included.
    std::vector<PlanPoint> points;
    auto rows_parts = candidate_parts(rows, total_cores);
    for (int pr : rows_parts) {
        auto cols_parts = row_reduction_kind(op.kind)
                              ? std::vector<int>{1}
                              : candidate_parts(cols, total_cores / pr);
        for (int pc : cols_parts) {
            auto k_parts = mm ? candidate_parts(contraction,
                                                total_cores / (static_cast<long>(pr) * pc))
                              : std::vector<int>{1};
            for (int pk : k_parts) {
                ExecPlan base;
                base.parts_rows = pr;
                base.parts_cols = pc;
                base.parts_k = pk;
                // Probe with no replication choice to get groups.
                ExecPlan probe = base;
                if (!compute_plan_metrics(op, ctx, probe)) {
                    // Try anyway with repl=1; if the tile itself is too
                    // big this partition is hopeless only when repl
                    // can't shrink it further — handled below by
                    // enumerating repl candidates regardless.
                    probe = base;
                    probe.repl_a = 1;
                    probe.repl_w = 1;
                    if (!compute_plan_metrics(op, ctx, probe)) {
                        // Even the largest-memory variant fails; the
                        // higher-repl variants may still fit, so fall
                        // through with conservative group bounds.
                        probe.group_a = pc;
                        probe.group_w = pr;
                    }
                }
                int rw_limit = w_from_hbm(op) && probe.group_w == 1
                                   ? kMaxStreamChunks
                                   : probe.group_w;
                for (int ra : candidate_repl(probe.group_a)) {
                    for (int rw : candidate_repl(rw_limit)) {
                        ExecPlan plan = base;
                        plan.repl_a = ra;
                        plan.repl_w = rw;
                        if (compute_plan_metrics(op, ctx, plan)) {
                            points.push_back({plan.exec_space,
                                              plan.time_cost(), pr, pc, pk,
                                              ra, rw});
                        }
                    }
                }
            }
        }
    }

    auto kept = pareto_front(
        std::move(points), [](const PlanPoint& p) { return p.exec_space; },
        [](const PlanPoint& p) { return p.time_cost; });
    util::check(!kept.empty(),
                "no feasible execution plan for operator " + op.name);
    std::vector<ExecPlan> front(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
        ExecPlan& plan = front[i];
        plan.parts_rows = kept[i].parts_rows;
        plan.parts_cols = kept[i].parts_cols;
        plan.parts_k = kept[i].parts_k;
        plan.repl_a = kept[i].repl_a;
        plan.repl_w = kept[i].repl_w;
        compute_plan_metrics(op, ctx, plan);
    }
    return front;
}

std::vector<std::vector<ExecPlan>>
enumerate_exec_fronts(const std::vector<const graph::Operator*>& ops,
                      const PlanContext& ctx, util::ThreadPool* pool)
{
    std::vector<std::vector<ExecPlan>> fronts(ops.size());
    util::ThreadPool::run(pool, static_cast<int>(ops.size()), [&](int i) {
        fronts[i] = enumerate_exec_plans(*ops[i], ctx);
    });
    return fronts;
}

int
min_time_cost_index(const std::vector<PreloadPlan>& front, int floor)
{
    int best = std::min<int>(floor, static_cast<int>(front.size()) - 1);
    for (int i = best + 1; i < static_cast<int>(front.size()); ++i) {
        if (front[i].time_cost() < front[best].time_cost()) {
            best = i;
        }
    }
    return best;
}

std::vector<PreloadPlan>
enumerate_preload_plans(const graph::Operator& op, const ExecPlan& exec,
                        const PlanContext& ctx)
{
    const hw::ChipConfig& cfg = *ctx.cfg;
    std::vector<PreloadPlan> plans;

    if (op.hbm_bytes() == 0 || exec.w_need == 0) {
        // Nothing arrives from HBM; a single empty plan.
        plans.push_back({});
        return plans;
    }

    const double fr = 1.0 / exec.repl_w;  // execute-state residency
    // Scatter floor: a shared W may spread to 1/group_w per core; a
    // streamed W has no sharing group — its single preload plan simply
    // buffers the execute-state chunk.
    const double fmin = w_from_hbm(op) && exec.group_w == 1
                            ? fr
                            : 1.0 / exec.group_w;
    double peer_bw = per_core_peer_bw(ctx, exec.cores_used());

    const bool chunked = w_from_hbm(op) && exec.group_w == 1;
    double gamma = fr;
    while (true) {
        PreloadPlan p;
        p.gamma = std::max(gamma, fmin);
        // Chunked streams defer the non-resident fraction of their HBM
        // bytes to execution time.
        p.dram_fraction = chunked ? fr : 1.0;
        p.preload_space = static_cast<uint64_t>(
            std::ceil(p.gamma * static_cast<double>(exec.w_need)));
        p.distribute_bytes =
            std::max(0.0, (fr - p.gamma) * static_cast<double>(exec.w_need));
        p.distribute_time =
            cost::link_transfer_time(p.distribute_bytes, peer_bw,
                                     cfg.link_latency_s,
                                     cfg.transfer_buffer_per_core) +
            p.distribute_bytes / cfg.sram_read_bw;
        p.noc_delivery_bytes = p.gamma * static_cast<double>(exec.w_need) *
                               static_cast<double>(exec.cores_used());
        double delivery_capacity =
            ctx.traffic->hbm_delivery_capacity() * cfg.num_chips;
        p.delivery_overhead_time =
            std::max(0.0, p.noc_delivery_bytes -
                              static_cast<double>(op.hbm_bytes())) /
            delivery_capacity;
        plans.push_back(p);
        if (p.gamma <= fmin) {
            break;
        }
        gamma /= 2.0;
    }

    // Prune on distribution time only so the MaxPreload (broadcast)
    // plan always heads the front: its extra fabric occupancy
    // (delivery_overhead_time) is a *contention* cost that only
    // matters when preload and execution compete for the fabric — the
    // allocator weighs it via time_cost(), and in compute-bound
    // regimes where the fabric is idle the broadcast stays free.
    return pareto_front(
        std::move(plans),
        [](const PreloadPlan& p) { return p.preload_space; },
        [](const PreloadPlan& p) { return p.distribute_time; });
}

}  // namespace elk::plan
