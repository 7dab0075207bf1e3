#include "plan/plan_enumerator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

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
 * Partition stage of the plan metrics: every term that depends on the
 * partition factors (parts_rows, parts_cols, parts_k) alone, computed
 * once per partition and shared by all of its replication choices.
 */
struct PartitionTerms {
    int parts_rows = 1;
    int parts_cols = 1;
    int parts_k = 1;
    long tile_rows = 1;
    long tile_cols = 1;
    long tile_k = 1;
    int group_a = 1;     ///< ExecPlan::group_a.
    int group_w = 1;     ///< ExecPlan::group_w.
    int max_repl_a = 1;  ///< largest feasible repl_a.
    int max_repl_w = 1;  ///< largest feasible repl_w.
    /// W streams from HBM in repl_w chunks instead of from peers.
    bool w_streams = false;
    uint64_t a_need = 0;
    uint64_t w_need = 0;
    uint64_t out_bytes = 0;
    uint64_t partial = 0;   ///< partial-sum buffer (split k only).
    double cores = 1;       ///< cores_used() as a double.
    double reduce_bytes = 0;
    double compute_time = 0;
    double peer_bw = 0;     ///< per-core peer-exchange bandwidth.
    double reduce_time = 0;
    double inter_chip_time = 0;
    double fabric_capacity = 0;  ///< system peer-exchange capacity.
};

/// Replication stage of the plan metrics: the terms of one
/// (repl_a, repl_w) choice over a partition.
struct ReplicationTerms {
    uint64_t exec_space = 0;
    double fetch_bytes = 0;
    double hbm_stream_bytes = 0;
    double exec_time = 0;
    double fabric_time = 0;
};

/// Fills @p t for partition (@p pr, @p pc, @p pk) of @p op; false when
/// a factor exceeds its dimension or the partition exceeds the chip.
bool
partition_stage(const graph::Operator& op, const PlanContext& ctx, int pr,
                int pc, int pk, PartitionTerms& t)
{
    const hw::ChipConfig& cfg = *ctx.cfg;
    const bool mm = graph::uses_matmul_pipeline(op.kind);
    const long rows = op.batch * op.m;
    const long cols = op.n;
    const long contraction = mm ? op.k : 1;

    if (pr > rows || pc > cols || pk > contraction) {
        return false;
    }
    const long cores_used = static_cast<long>(pr) * pc * pk;
    if (cores_used > cfg.total_cores()) {
        return false;
    }
    t.parts_rows = pr;
    t.parts_cols = pc;
    t.parts_k = pk;
    t.cores = static_cast<double>(cores_used);

    t.tile_rows = cdiv(rows, pr);
    t.tile_cols = cdiv(cols, pc);
    t.tile_k = cdiv(contraction, pk);

    // Sharing groups. A blocks are reused across the column partitions
    // (each column group consumes the same rows of A); W blocks are
    // reused across the row partitions that consume the same weights.
    const long w_share = op.w_share_rows == 0 ? rows : op.w_share_rows;
    t.group_a = pc;
    t.group_w = static_cast<int>(
        std::max(1L, std::min<long>(pr, w_share / t.tile_rows)));
    // An HBM-fed W whose partition leaves no sharing group is consumed
    // in repl_w chunks straight from HBM rather than fetched from
    // peers (flash-attention-style chunking for KV, column-chunked
    // weight streaming for giant weight matrices such as an LM head
    // that exceeds the chip), so repl_w is then bounded by the chunking
    // cap instead of the sharing group. When the partition does share W
    // across cores, the normal broadcast/peer path applies.
    t.w_streams = w_from_hbm(op) && t.group_w == 1;
    t.max_repl_a = t.group_a;
    t.max_repl_w = t.w_streams ? kMaxStreamChunks : t.group_w;

    // Per-core byte needs.
    const uint64_t dt = op.dtype_bytes;
    if (mm) {
        t.a_need = static_cast<uint64_t>(t.tile_rows) * t.tile_k * dt;
        // The W operand (weights or KV stream) a core consumes: its
        // column/contraction slice of every distinct k x n W block its
        // rows touch. Rows within one w_share span reuse one block.
        double col_frac = static_cast<double>(t.tile_cols) / cols;
        double k_frac = static_cast<double>(t.tile_k) / contraction;
        double block_bytes = static_cast<double>(op.k) * op.n * dt;
        double blocks_touched =
            std::max(1.0, static_cast<double>(t.tile_rows) / w_share);
        t.w_need = static_cast<uint64_t>(
            blocks_touched * block_bytes * col_frac * k_frac);
        t.w_need = std::max<uint64_t>(t.w_need, 1);
    } else {
        // Small params, fully replicated: A stays whole (repl_a 1) and
        // W spreads over at most the sharing group.
        t.a_need = static_cast<uint64_t>(t.tile_rows) * t.tile_cols * dt;
        t.w_need = op.hbm_bytes();
        t.max_repl_a = 1;
        t.max_repl_w = std::min(t.max_repl_w, pr);
        t.group_a = 1;
        t.group_w = pr;
    }
    t.out_bytes = static_cast<uint64_t>(t.tile_rows) * t.tile_cols * dt;
    // Partial-sum buffer and reduction along the k partitions (ring
    // all-reduce) when the contraction is split.
    t.partial = pk > 1 ? t.out_bytes : 0;
    t.reduce_bytes = pk > 1 ? 2.0 * (pk - 1) / pk *
                                  static_cast<double>(t.out_bytes)
                            : 0.0;

    // Per-core tile compute, the reduction exchange and the inter-chip
    // activation hand-off (see replication_stage for the whole §4.3
    // execution-time estimate).
    cost::TileWork tile;
    tile.kind = op.kind;
    tile.rows = t.tile_rows;
    tile.n = t.tile_cols;
    tile.k = t.tile_k;
    tile.dtype_bytes = op.dtype_bytes;
    t.compute_time = ctx.exec_cost->tile_time(tile, cfg);
    t.peer_bw = per_core_peer_bw(ctx, cores_used);
    t.reduce_time = cost::link_transfer_time(
        t.reduce_bytes, t.peer_bw, cfg.link_latency_s,
        cfg.transfer_buffer_per_core);
    t.inter_chip_time =
        cfg.num_chips > 1 && mm
            ? static_cast<double>(op.act_out_bytes) / cfg.inter_chip_bw
            : 0.0;
    t.fabric_capacity =
        ctx.traffic->peer_exchange_capacity() * cfg.num_chips;
    return true;
}

/// Fills @p r for residency (@p ra, @p rw) over partition @p t; false
/// when a factor exceeds its sharing group or the plan exceeds the
/// SRAM budget.
bool
replication_stage(const PartitionTerms& t, const PlanContext& ctx, int ra,
                  int rw, ReplicationTerms& r)
{
    if (ra < 1 || rw < 1 || ra > t.max_repl_a || rw > t.max_repl_w) {
        return false;
    }
    // Execution space: resident shares + output (+ partial-sum buffer
    // when the contraction is split).
    r.exec_space = t.a_need / ra + t.w_need / rw + t.out_bytes + t.partial;
    if (r.exec_space > ctx.sram_budget()) {
        return false;
    }
    const hw::ChipConfig& cfg = *ctx.cfg;

    // On-demand inter-core traffic during execution: the non-resident
    // fractions of A and W, rotated in from group peers (Fig. 3c). A
    // streamed W arrives from HBM, not from peers, so its non-resident
    // chunks cost no inter-core traffic.
    double fa = 1.0 / ra;
    double fw = 1.0 / rw;
    r.fetch_bytes =
        (1.0 - fa) * static_cast<double>(t.a_need) +
        (t.w_streams ? 0.0 : (1.0 - fw) * static_cast<double>(t.w_need));

    // Execution time estimate (per §4.3's cost model): per-core tile
    // compute, on-demand fetches over the interconnect, the SRAM
    // access contention of serving peers (which pauses local compute
    // on IPU-like cores), and the reduction exchange.
    double fetch_time = cost::link_transfer_time(
        r.fetch_bytes, t.peer_bw, cfg.link_latency_s,
        cfg.transfer_buffer_per_core);
    double serve_stall = r.fetch_bytes / cfg.sram_read_bw;

    // Chunked streamed operands consume their non-resident fraction
    // from HBM while executing; the phase cannot beat that stream.
    r.hbm_stream_bytes =
        t.w_streams ? (1.0 - fw) * static_cast<double>(t.w_need) : 0.0;
    double stream_time = r.hbm_stream_bytes * t.cores / cfg.hbm_total_bw;

    // The compute pipeline, the rotation fetches and the HBM stream
    // proceed concurrently within the execution phase (round
    // double-buffering), so the phase lasts as long as the slowest;
    // serving peers' reads stalls the local pipeline (contention 3 in
    // Fig. 2) and therefore adds to the compute side.
    r.exec_time = std::max({t.compute_time + serve_stall,
                            fetch_time + t.reduce_time, stream_time}) +
                  t.inter_chip_time;
    r.fabric_time =
        (r.fetch_bytes + t.reduce_bytes) * t.cores / t.fabric_capacity;
    return true;
}

/// Writes the plan of residency (@p ra, @p rw) over partition @p t.
void
assemble_plan(const PartitionTerms& t, int ra, int rw,
              const ReplicationTerms& r, ExecPlan& plan)
{
    plan.parts_rows = t.parts_rows;
    plan.parts_cols = t.parts_cols;
    plan.parts_k = t.parts_k;
    plan.repl_a = ra;
    plan.repl_w = rw;
    plan.tile_rows = t.tile_rows;
    plan.tile_cols = t.tile_cols;
    plan.tile_k = t.tile_k;
    plan.a_need = t.a_need;
    plan.w_need = t.w_need;
    plan.out_bytes = t.out_bytes;
    plan.group_a = t.group_a;
    plan.group_w = t.group_w;
    plan.exec_space = r.exec_space;
    plan.fetch_bytes = r.fetch_bytes;
    plan.reduce_bytes = t.reduce_bytes;
    plan.hbm_stream_bytes = r.hbm_stream_bytes;
    plan.compute_time = t.compute_time;
    plan.exec_time = r.exec_time;
    plan.fabric_time = r.fabric_time;
}

/**
 * The residency candidate after @p r for a sharing group of @p group:
 * powers of two up to the group, then the group itself; 0 after the
 * last.
 */
int
next_repl(int r, int group)
{
    if (r >= group) {
        return 0;
    }
    long twice = 2L * r;
    return twice <= group ? static_cast<int>(twice) : group;
}

/// Residency candidates are powers of two or the group itself; a
/// point stores a power of two as its exponent and the group as this.
constexpr uint8_t kGroupRepl = 0xFF;

uint8_t
repl_code(int r, int group)
{
    if (r == group && (r & (r - 1)) != 0) {
        return kGroupRepl;
    }
    uint8_t log2 = 0;
    while ((1 << log2) < r) {
        ++log2;
    }
    return log2;
}

int
repl_of(uint8_t code, int group)
{
    return code == kGroupRepl ? group : 1 << code;
}

/**
 * One feasible execute plan as enumeration keeps it: its two Pareto
 * axes (exec_space, time_cost()), the index of its partition's terms
 * and its two residency codes. 24 bytes, so the tie sort moves little.
 */
struct PlanPoint {
    uint64_t exec_space;
    double time_cost;
    uint32_t partition;
    uint8_t repl_a;
    uint8_t repl_w;
};
static_assert(sizeof(PlanPoint) <= 24, "PlanPoint grew past 24 bytes");

/// A partition with the residency groups its candidates range over.
struct Partition {
    PartitionTerms terms;
    int repl_a_group;
    int repl_w_group;
};

}  // namespace

bool
compute_plan_metrics(const graph::Operator& op, const PlanContext& ctx,
                     ExecPlan& plan)
{
    PartitionTerms t;
    ReplicationTerms r;
    if (!partition_stage(op, ctx, plan.parts_rows, plan.parts_cols,
                         plan.parts_k, t) ||
        !replication_stage(t, ctx, plan.repl_a, plan.repl_w, r)) {
        return false;
    }
    assemble_plan(t, plan.repl_a, plan.repl_w, r, plan);
    return true;
}

std::vector<ExecPlan>
enumerate_exec_plans(const graph::Operator& op, const PlanContext& ctx,
                     EnumerationStats* stats)
{
    const long rows = op.batch * op.m;
    const long cols = op.n;
    const long total_cores = ctx.cfg->total_cores();
    const bool mm = graph::uses_matmul_pipeline(op.kind);
    const long contraction = mm ? op.k : 1;

    // Each partition's terms are computed once; its feasible residency
    // choices are kept as compact points (the two Pareto axes plus the
    // decision variables) in enumeration order, and only the front's
    // survivors are rebuilt as full ExecPlans below. A tie sort sees
    // the same (space, time) keys in the same order as a sort of whole
    // plans would, so it makes the same comparisons and yields the
    // same permutation, exact ties included.
    std::vector<Partition> partitions;
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
                Partition part;
                if (!partition_stage(op, ctx, pr, pc, pk, part.terms)) {
                    continue;
                }
                // Residency ranges over the plan's sharing groups when
                // the fully resident plan fits; otherwise over the
                // conservative partition bounds, since the higher-repl
                // variants may still fit.
                ReplicationTerms r;
                const bool resident_fits =
                    replication_stage(part.terms, ctx, 1, 1, r);
                part.repl_a_group = resident_fits ? part.terms.group_a : pc;
                int group_w = resident_fits ? part.terms.group_w : pr;
                part.repl_w_group = w_from_hbm(op) && group_w == 1
                                        ? kMaxStreamChunks
                                        : group_w;
                if (partitions.size() >= UINT32_MAX) {
                    util::panic("enumerate_exec_plans: operator " +
                                op.name + " has more partitions than a "
                                "plan point can index");
                }
                const auto index = static_cast<uint32_t>(partitions.size());
                for (int ra = 1; ra != 0;
                     ra = next_repl(ra, part.repl_a_group)) {
                    for (int rw = 1; rw != 0;
                         rw = next_repl(rw, part.repl_w_group)) {
                        if (replication_stage(part.terms, ctx, ra, rw, r)) {
                            points.push_back(
                                {r.exec_space, r.exec_time + r.fabric_time,
                                 index, repl_code(ra, part.repl_a_group),
                                 repl_code(rw, part.repl_w_group)});
                        }
                    }
                }
                partitions.push_back(part);
            }
        }
    }

    bool tied = false;
    const size_t feasible = points.size();
    auto kept = pareto_front(
        std::move(points), [](const PlanPoint& p) { return p.exec_space; },
        [](const PlanPoint& p) { return p.time_cost; }, &tied);
    if (kept.empty()) {
        util::panic("no feasible execution plan for operator " + op.name);
    }
    if (stats != nullptr) {
        stats->exec_points += feasible;
        stats->tied_fronts += tied ? 1 : 0;
    }
    std::vector<ExecPlan> front(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
        const Partition& part = partitions[kept[i].partition];
        const int ra = repl_of(kept[i].repl_a, part.repl_a_group);
        const int rw = repl_of(kept[i].repl_w, part.repl_w_group);
        ReplicationTerms r;
        replication_stage(part.terms, ctx, ra, rw, r);
        assemble_plan(part.terms, ra, rw, r, front[i]);
    }
    return front;
}

std::vector<std::vector<ExecPlan>>
enumerate_exec_fronts(const std::vector<const graph::Operator*>& ops,
                      const PlanContext& ctx, util::ThreadPool* pool,
                      EnumerationStats* stats)
{
    std::vector<std::vector<ExecPlan>> fronts(ops.size());
    std::vector<EnumerationStats> per_op(ops.size());
    util::ThreadPool::run(pool, static_cast<int>(ops.size()), [&](int i) {
        fronts[i] = enumerate_exec_plans(*ops[i], ctx, &per_op[i]);
    });
    if (stats != nullptr) {
        for (const EnumerationStats& s : per_op) {
            stats->exec_points += s.exec_points;
            stats->tied_fronts += s.tied_fronts;
        }
    }
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
