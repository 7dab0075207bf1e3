/**
 * @file
 * KV-cache residency tests: the engine's KV segment lifecycle
 * (alloc/grow/fetch/pin/free with byte accounting), spill ordering at
 * the KV budget boundary, weights-vs-KV competition under SRAM
 * pressure (the oldest entry goes, whatever its class), segment
 * growth across a park/resume cycle, the serving-level backpressure
 * and accounting, the zero-budget bit-identity anchor (kv_budget = 0,
 * the default, reproduces the KV-free scheduler bit-for-bit across all
 * five design modes), and death tests for segment misuse.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "sim/engine.h"
#include "test_helpers.h"

namespace elk {
namespace {

/// A synthetic op with an HBM preload and a fixed execute time.
sim::SimOp
make_op(int id, double dram, double exec_time, uint64_t preload_space,
        uint64_t exec_space)
{
    sim::SimOp op;
    op.op_id = id;
    op.dram_bytes = dram;
    op.delivery_bytes = dram;
    op.exec_local_time = exec_time;
    op.preload_space = preload_space;
    op.exec_space = exec_space;
    op.flops = 1e6;
    return op;
}

// ---------------------------------------------------------------------------
// Graph metadata: the builders stamp the KV geometry next to seq

TEST(KvMetadataTest, BuildersStampKvBytesPerToken)
{
    graph::ModelConfig cfg = testing::tiny_llm_gqa();
    const uint64_t expect = 2ull * cfg.layers * cfg.kv_heads *
                            cfg.head_dim * cfg.dtype_bytes;
    EXPECT_EQ(graph::kv_bytes_per_token(cfg), expect);
    EXPECT_EQ(
        graph::build_decode_graph(cfg, 2, 64).kv_bytes_per_token(),
        expect);
    EXPECT_EQ(
        graph::build_forward_graph(cfg, 2, 64).kv_bytes_per_token(),
        expect);
    // DiT keeps no KV state between steps.
    EXPECT_EQ(graph::build_dit_graph(graph::dit_xl(), 1, 64)
                  .kv_bytes_per_token(),
              0u);
}

// ---------------------------------------------------------------------------
// Engine-level: segment lifecycle and byte accounting

TEST(KvSegmentTest, AllocGrowFreeTracksBytesAndPeak)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);  // kv uncapped

    EXPECT_TRUE(state.kv_would_fit(1 << 30));  // uncapped
    EXPECT_TRUE(state.kv_alloc(1, 4096));
    EXPECT_TRUE(state.kv_alloc(2, 2048));
    EXPECT_EQ(state.kv_bytes(), 6144u);
    EXPECT_EQ(state.kv_segments(), 2);
    EXPECT_TRUE(state.kv_resident(1));

    state.kv_grow(1, 1024);
    EXPECT_EQ(state.kv_segment_bytes(1), 5120u);
    EXPECT_EQ(state.kv_bytes(), 7168u);
    EXPECT_EQ(state.kv_bytes_peak(), 7168u);

    state.kv_free(2);
    EXPECT_EQ(state.kv_bytes(), 5120u);
    EXPECT_EQ(state.kv_segments(), 1);
    EXPECT_EQ(state.kv_bytes_peak(), 7168u);  // high-water sticks
    EXPECT_EQ(state.kv_evictions(), 0);
    state.kv_free(1);
    EXPECT_EQ(state.kv_bytes(), 0u);
}

TEST(KvSegmentTest, BudgetSpillsOldestFirstAndFetchReadmits)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState::Options opts;
    opts.kv_budget = 8192;  // fits two 4 KB segments
    sim::EngineState state(machine, opts);

    EXPECT_TRUE(state.kv_alloc(1, 4096));
    EXPECT_TRUE(state.kv_alloc(2, 4096));
    EXPECT_FALSE(state.kv_would_fit(4096));
    // Admitting a third spills the oldest.
    EXPECT_TRUE(state.kv_alloc(3, 4096));
    EXPECT_FALSE(state.kv_resident(1));
    EXPECT_TRUE(state.kv_resident(2));
    EXPECT_TRUE(state.kv_resident(3));
    EXPECT_EQ(state.kv_evictions(), 1);
    EXPECT_EQ(state.kv_bytes(), 8192u);

    // Fetching the spilled segment back spills the new oldest.
    EXPECT_TRUE(state.kv_fetch(1));
    EXPECT_TRUE(state.kv_resident(1));
    EXPECT_FALSE(state.kv_resident(2));
    EXPECT_EQ(state.kv_evictions(), 2);

    // A pinned segment never spills: pin 1 and 3, then growth of 3
    // past the budget can only spill the grower itself — but it is
    // pinned too, so the overshoot stands.
    state.kv_pin(1);
    state.kv_pin(3);
    state.kv_grow(3, 4096);
    EXPECT_TRUE(state.kv_resident(3));
    EXPECT_EQ(state.kv_bytes(), 12288u);
    state.kv_unpin(3);
    // Unpinned now: the next over-budget growth spills it whole.
    state.kv_grow(3, 1024);
    EXPECT_FALSE(state.kv_resident(3));
    EXPECT_EQ(state.kv_segment_bytes(3), 9216u);
    EXPECT_TRUE(state.kv_resident(1));  // pinned survivor
    state.kv_unpin(1);

    // An oversized segment can never be admitted.
    EXPECT_FALSE(state.kv_fetch(3));
    state.kv_free(1);
    state.kv_free(2);
    state.kv_free(3);
}

// The satellite check: eviction ordering when weights and KV compete
// at the budget boundary. The globally oldest entry goes, whatever
// its class.
TEST(KvSegmentTest, WeightsAndKvCompeteUnderPressure)
{
    hw::ChipConfig cfg = hw::ChipConfig::tiny(16);
    sim::Machine machine(cfg);
    const double bw = cfg.hbm_total_bw;
    const uint64_t usable = cfg.usable_sram_per_core();
    const uint64_t space = 8 * 1024;

    sim::SimProgram weights;
    weights.ops.push_back(make_op(0, bw * 1e-3, 1e-4, space, space));
    weights.finalize_default_order();
    // The fat program squeezes occupancy just past usable SRAM, so
    // exactly one of {weight entry, KV segment} must go.
    sim::SimProgram fat;
    fat.ops.push_back(make_op(900, bw * 1e-4, 1e-4, space / 2,
                              usable - 2 * space + space / 2));
    fat.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = usable;
    sim::EngineState state(machine, opts);
    state.begin(weights);
    while (state.step()) {
    }
    state.finish();
    ASSERT_EQ(state.resident_ops(), 1);  // weight entry, older
    ASSERT_TRUE(state.kv_alloc(7, space));  // KV segment, newer

    state.begin(fat);
    while (state.step()) {
    }
    state.finish();
    // The weight entry is older and goes first. (The fat op's own
    // weights are admitted at its retire, so op 900 appears in the
    // resident set.)
    std::vector<int> ids = state.resident_op_ids();
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), 0) == ids.end());
    EXPECT_TRUE(state.kv_resident(7));
    EXPECT_EQ(state.resident_evictions(), 1);
    EXPECT_EQ(state.kv_evictions(), 0);
    state.kv_free(7);
}

// The satellite check: segment growth across a park/resume cycle. A
// pinned segment survives an interleaved program (whose own segment
// cannot displace it), the parked victim's result is bit-identical to
// an uninterrupted run, and growth after the pin drops spills per the
// budget.
TEST(KvSegmentTest, GrowthAcrossParkResumeCycle)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram victim;
    for (int i = 0; i < 5; ++i) {
        victim.ops.push_back(make_op(i, dram, 2e-4, 2048, 4096));
    }
    victim.finalize_default_order();
    sim::SimProgram interloper;
    interloper.ops.push_back(make_op(1000, dram / 2, 1e-4, 1024, 2048));
    interloper.finalize_default_order();

    sim::EngineState::Options opts;
    opts.kv_budget = 4096;

    // Reference: same KV setup, victim runs uninterrupted.
    sim::EngineState ref(machine, opts);
    ASSERT_TRUE(ref.kv_alloc(1, 4096));
    ref.kv_pin(1);
    ref.begin(victim);
    while (ref.step()) {
    }
    sim::SimResult uninterrupted = ref.finish();

    sim::EngineState state(machine, opts);
    ASSERT_TRUE(state.kv_alloc(1, 4096));
    state.kv_pin(1);  // the owning iteration is in flight
    state.begin(victim);
    for (int s = 0; s < 7; ++s) {
        ASSERT_TRUE(state.step());
    }
    sim::EngineState::Parked parked = state.park();

    // The interloper's segment finds the budget full of pinned KV:
    // born spilled, no eviction of the victim's state.
    EXPECT_FALSE(state.kv_alloc(2, 4096));
    state.begin(interloper);
    while (state.step()) {
    }
    state.finish();
    EXPECT_TRUE(state.kv_resident(1));
    EXPECT_EQ(state.kv_evictions(), 0);

    state.resume(std::move(parked));
    while (state.step()) {
    }
    sim::SimResult resumed = state.finish();
    EXPECT_EQ(uninterrupted.serialize_bits(), resumed.serialize_bits());

    // Iteration over: the pin drops and the segment grows by one
    // token past the budget — with nothing else to spill, it spills
    // itself (the thrash a tight budget produces).
    state.kv_unpin(1);
    state.kv_grow(1, 512);
    EXPECT_FALSE(state.kv_resident(1));
    EXPECT_EQ(state.kv_segment_bytes(1), 4608u);
    EXPECT_EQ(state.kv_evictions(), 1);
    state.kv_free(1);
    state.kv_free(2);
}

// ---------------------------------------------------------------------------
// Death tests: segment misuse panics

TEST(KvSegmentDeathTest, FreeingAnUnownedSegmentDies)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);
    EXPECT_DEATH(state.kv_free(42), "unowned segment");
}

TEST(KvSegmentDeathTest, DoubleAllocAndPinnedFreeDie)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    sim::EngineState state(machine);
    ASSERT_TRUE(state.kv_alloc(1, 1024));
    EXPECT_DEATH(state.kv_alloc(1, 1024), "existing segment");
    state.kv_pin(1);
    EXPECT_DEATH(state.kv_free(1), "pinned segment");
}

// ---------------------------------------------------------------------------
// Serving-level

class KvServingTest : public ::testing::Test {
  protected:
    compiler::PlanCache cache_;
};

// The acceptance anchor: kv_budget = 0 (unlimited KV, the default)
// serves bit-identically to the pre-KV scheduler across all five
// design modes — on the decode-only degenerate trace the plain
// serve() reference loop is the pre-PR baseline, and on a mixed
// prefill/decode trace setting kv_bytes_per_token without a budget
// must not perturb a single bit.
TEST_F(KvServingTest, ZeroBudgetIsBitIdenticalAcrossModes)
{
    auto arrivals = runtime::ArrivalTrace::poisson(10, 2500.0, 7);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = testing::serving_compiler(
            compiler::GraphKind::kDecode, mode, 128, &cache_);
        auto pc = testing::serving_compiler(
            compiler::GraphKind::kPrefill, mode, 128, &cache_);

        // Decode-only: the plain serve() loop is the reference.
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.tokens_per_request = 3;
        runtime::Server server(dc.machine(), sopts);
        auto legacy = server.serve(
            arrivals, [&](int b) { return dc.program(b); });
        auto disagg = server.serve(
            runtime::decode_requests(arrivals, 3), nullptr,
            [&](int b) { return dc.program(b); });
        EXPECT_EQ(legacy.serialize_bits(), disagg.serialize_bits())
            << compiler::mode_name(mode);
        EXPECT_FALSE(disagg.kv_modeled);
        EXPECT_EQ(disagg.kv_bytes_peak, 0u);
        EXPECT_EQ(disagg.deferred_admissions, 0);

        // Mixed trace: kv_bytes_per_token without a budget is inert.
        auto mixed = runtime::make_request_trace(arrivals, 3,
                                                 /*prefill_frac=*/0.7,
                                                 /*high_frac=*/0.0, 7);
        runtime::ServerOptions base;
        base.max_batch = 4;
        base.max_prefill_batch = 2;
        base.max_prompt_len = 128;
        runtime::ServerOptions inert = base;
        inert.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
        auto serve_mixed = [&](const runtime::ServerOptions& o) {
            runtime::Server s(dc.machine(), o);
            return s.serve(
                mixed,
                [&](int b, int len) { return pc.program(b, len); },
                [&](int b) { return dc.program(b); });
        };
        EXPECT_EQ(serve_mixed(base).serialize_bits(),
                  serve_mixed(inert).serialize_bits())
            << compiler::mode_name(mode);
    }
}

// A tight budget produces admission backpressure: prompts wait until
// completions free KV, the deferral counter reports it, and the run
// still completes deterministically.
TEST_F(KvServingTest, TightBudgetDefersAdmissionsDeterministically)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, 128, &cache_);
    auto requests = runtime::prefill_requests(
        runtime::ArrivalTrace::poisson(6, 2000.0, 5), 3);

    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 2;
    sopts.max_prompt_len = 128;
    sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
    // One full-length segment per core is 128 tokens x bytes per token /
    // 64 cores; budget 1.5 segments => the second prompt defers.
    uint64_t seg = 128 * testing::tiny_kv_bytes_per_token() / 64;
    sopts.kv_budget = seg + seg / 2;

    runtime::Server server(dc.machine(), sopts);
    auto serve_once = [&] {
        return server.serve(
            requests, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto rep = serve_once();
    EXPECT_TRUE(rep.kv_modeled);
    EXPECT_EQ(rep.requests, 6);
    EXPECT_GT(rep.deferred_admissions, 0);
    EXPECT_GT(rep.kv_bytes_peak, 0u);
    EXPECT_LE(rep.kv_bytes_peak, sopts.kv_budget);
    EXPECT_GT(rep.mean_kv_bytes, 0.0);
    // Deterministic: a second serve is bit-identical.
    EXPECT_EQ(rep.serialize_bits(), serve_once().serialize_bits());
}

// A budget smaller than a single segment: every segment is born
// spilled and streams back before each of its decode iterations —
// the permanent-thrash regime, visible as refetches and stall time.
TEST_F(KvServingTest, OversizedSegmentsThrashButComplete)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkDyn, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkDyn, 128, &cache_);
    auto requests = runtime::prefill_requests(
        runtime::ArrivalTrace::closed_loop(4), 3);

    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 2;
    sopts.max_prompt_len = 128;
    sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
    sopts.kv_budget = 1024;  // well under one 128-token segment

    runtime::Server server(dc.machine(), sopts);
    auto rep = server.serve(
        requests, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.requests, 4);
    EXPECT_GT(rep.kv_refetches, 0);
    EXPECT_GT(rep.kv_stall, 0.0);
    EXPECT_EQ(rep.kv_bytes_peak, 0u);  // nothing ever fit
    EXPECT_EQ(rep.tokens, 12);
}

// KV modeling composes with preemption: the victim's pinned segments
// survive the nested iteration, the VIP's prompt is force-admitted
// past backpressure, and the serve stays deterministic.
TEST_F(KvServingTest, PreemptionWithKvPinsVictimSegments)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, 128, &cache_);

    std::vector<runtime::Request> requests;
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = runtime::Phase::kPrefill;
        r.decode_tokens = 16;
        requests.push_back(r);
    }
    runtime::Request vip;
    vip.arrival = 1e-3;  // lands mid-iteration
    vip.phase = runtime::Phase::kPrefill;
    vip.priority = runtime::Priority::kHigh;
    vip.decode_tokens = 2;
    requests.push_back(vip);

    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 2;
    sopts.max_prompt_len = 128;
    sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
    uint64_t seg = 128 * testing::tiny_kv_bytes_per_token() / 64;
    sopts.kv_budget = 3 * seg;  // the VIP's segment needs a spill

    runtime::Server server(dc.machine(), sopts);
    auto serve_once = [&] {
        return server.serve(
            requests, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto rep = serve_once();
    EXPECT_EQ(rep.requests, 5);
    EXPECT_GE(rep.preemptions, 1);
    EXPECT_TRUE(rep.kv_modeled);
    EXPECT_EQ(rep.serialize_bits(), serve_once().serialize_bits());
}

}  // namespace
}  // namespace elk
