#include "elk/plan_cache.h"

#include <sstream>
#include <tuple>

#include "util/bits.h"

namespace elk::compiler {

using util::Fnv1a;

bool
PlanKey::operator<(const PlanKey& o) const
{
    return std::tie(model, chip, mode, batch, seq, options) <
           std::tie(o.model, o.chip, o.mode, o.batch, o.seq, o.options);
}

std::string
PlanKey::to_string() const
{
    std::ostringstream out;
    out << model << "|" << chip << "|" << mode << "|b" << batch << "|s"
        << seq << "|" << options;
    return out.str();
}

std::string
model_signature(const graph::Graph& graph)
{
    Fnv1a h;
    for (const auto& op : graph.ops()) {
        h.mix_value(static_cast<int>(op.kind));
        h.mix_value(op.layer);
        h.mix_value(op.batch);
        h.mix_value(op.m);
        h.mix_value(op.n);
        h.mix_value(op.k);
        h.mix_value(op.dtype_bytes);
        h.mix_value(op.w_share_rows);
        h.mix_value(op.param_bytes);
        h.mix_value(op.stream_bytes);
        h.mix_value(op.act_in_bytes);
        h.mix_value(op.act_out_bytes);
        h.mix_value(op.flops);
    }
    std::ostringstream out;
    out << graph.name() << ":" << graph.size() << ":" << h.hex();
    return out.str();
}

std::string
chip_signature(const hw::ChipConfig& cfg)
{
    Fnv1a h;
    h.mix_value(cfg.cores_per_chip);
    h.mix_value(cfg.num_chips);
    h.mix_value(cfg.core_matmul_flops);
    h.mix_value(cfg.core_vector_flops);
    h.mix_value(cfg.tile_launch_overhead_s);
    h.mix_value(cfg.sram_per_core);
    h.mix_value(cfg.transfer_buffer_per_core);
    h.mix_value(cfg.sram_read_bw);
    h.mix_value(static_cast<int>(cfg.topology));
    h.mix_value(cfg.inter_core_link_bw);
    h.mix_value(cfg.link_latency_s);
    h.mix_value(cfg.mesh_width);
    h.mix_value(cfg.mesh_height);
    h.mix_value(cfg.mesh_link_bw);
    h.mix_value(cfg.hbm_total_bw);
    h.mix_value(cfg.hbm_channels_per_chip);
    h.mix_value(cfg.hbm_access_latency_s);
    h.mix_value(cfg.inter_chip_bw);
    std::ostringstream out;
    out << cfg.num_chips << "x" << cfg.cores_per_chip << ":" << h.hex();
    return out.str();
}

PlanKey
make_plan_key(const graph::Graph& graph, const hw::ChipConfig& cfg,
              const CompileOptions& opts)
{
    PlanKey key;
    key.model = model_signature(graph);
    key.chip = chip_signature(cfg);
    key.mode = mode_name(opts.mode);
    key.seq = graph.seq();
    for (const auto& op : graph.ops()) {
        key.batch = std::max(key.batch, static_cast<int>(op.batch));
    }
    // Every option can change the produced plan. The compiler's job
    // count is not an option: plans are bit-identical at any count.
    Fnv1a h;
    h.mix_value(opts.max_window);
    h.mix_value(opts.max_orders);
    h.mix_value(opts.static_region);
    for (const auto& pass : opts.pass_filter) {
        h.mix(pass.data(), pass.size());
        h.mix_value('\0');
    }
    key.options = h.hex();
    return key;
}

std::shared_ptr<const sim::SimProgram>
PlanCache::lookup(const PlanKey& key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    return it->second;
}

void
PlanCache::insert(const PlanKey& key,
                  std::shared_ptr<const sim::SimProgram> program)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(key, std::move(program));
    stats_.entries = static_cast<int>(entries_.size());
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::vector<std::string>
PlanCache::keys() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, program] : entries_) {
        out.push_back(key.to_string());
    }
    return out;
}

}  // namespace elk::compiler
