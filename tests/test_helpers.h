/**
 * @file
 * Shared fixtures for compiler- and serving-level tests: a small
 * LLM-like graph, the scaled-down chip it compiles for, the plan
 * context / library plumbing around them, and the serving compiler
 * built over both.
 */
#ifndef ELK_TESTS_TEST_HELPERS_H
#define ELK_TESTS_TEST_HELPERS_H

#include <cstdint>
#include <memory>

#include "cost/exec_cost.h"
#include "elk/plan_cache.h"
#include "elk/schedule_ir.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "graph/model_config.h"
#include "hw/topology.h"
#include "hw/traffic.h"

namespace elk::testing {

/// A small but non-trivial LLM config that compiles in milliseconds.
inline graph::ModelConfig
tiny_llm()
{
    graph::ModelConfig cfg;
    cfg.name = "Tiny-LLM";
    cfg.hidden = 512;
    cfg.layers = 4;
    cfg.heads = 8;
    cfg.kv_heads = 8;
    cfg.head_dim = 64;
    cfg.ffn = 1536;
    cfg.vocab = 4096;
    cfg.gated_ffn = true;
    return cfg;
}

/// GQA variant of tiny_llm.
inline graph::ModelConfig
tiny_llm_gqa()
{
    graph::ModelConfig cfg = tiny_llm();
    cfg.name = "Tiny-LLM-GQA";
    cfg.kv_heads = 2;
    return cfg;
}

/// A scaled-down 64-core chip (8x8 mesh, 256 KB SRAM per core) that
/// tiny_llm() compiles for in milliseconds.
inline hw::ChipConfig
tiny_chip()
{
    hw::ChipConfig chip;
    chip.cores_per_chip = 64;
    chip.num_chips = 1;
    chip.sram_per_core = 256ull * 1024;
    chip.transfer_buffer_per_core = 8ull * 1024;
    chip.core_matmul_flops = 50e9;
    chip.core_vector_flops = 5e9;
    chip.inter_core_link_bw = 4e9;
    chip.hbm_total_bw = 200e9;
    chip.hbm_channels_per_chip = 2;
    chip.mesh_width = 8;
    chip.mesh_height = 8;
    return chip;
}

/// A @p kind ServingCompiler for tiny_llm() at sequence length @p seq
/// on tiny_chip(), with the order search capped at 6 for speed.
inline compiler::ServingCompiler
serving_compiler(compiler::GraphKind kind, compiler::Mode mode, int seq,
                 compiler::PlanCache* cache, int jobs = 1)
{
    compiler::CompileOptions copts;
    copts.mode = mode;
    copts.max_orders = 6;
    return compiler::ServingCompiler(tiny_llm(), seq, tiny_chip(), copts,
                                     cache, jobs, {kind});
}

/// Machine-total KV bytes per token of tiny_llm().
inline uint64_t
tiny_kv_bytes_per_token()
{
    return graph::kv_bytes_per_token(tiny_llm());
}

/// Owns a graph plus the full plan context / library around it.
struct CompilerHarness {
    CompilerHarness(graph::Graph g, hw::ChipConfig chip)
        : graph(std::move(g)), cfg(chip)
    {
        topo = std::make_unique<hw::Topology>(cfg);
        traffic = std::make_unique<hw::TrafficModel>(*topo, cfg);
        ctx.cfg = &cfg;
        ctx.traffic = traffic.get();
        ctx.exec_cost = &cost;
        library = std::make_unique<compiler::PlanLibrary>(graph, ctx);
    }

    /// Default: tiny LLM decode on a scaled-down chip.
    static CompilerHarness
    tiny()
    {
        return CompilerHarness(
            graph::build_decode_graph(tiny_llm(), /*batch=*/8,
                                      /*seq=*/512),
            tiny_chip());
    }

    graph::Graph graph;
    hw::ChipConfig cfg;
    std::unique_ptr<hw::Topology> topo;
    std::unique_ptr<hw::TrafficModel> traffic;
    cost::AnalyticExecCost cost;
    plan::PlanContext ctx;
    std::unique_ptr<compiler::PlanLibrary> library;
};

}  // namespace elk::testing

#endif  // ELK_TESTS_TEST_HELPERS_H
