/**
 * @file
 * Disaggregated serving and preemption tests: EngineState park/resume
 * (a parked-and-resumed program is bit-identical to an uninterrupted
 * one), the zero-preemption baselines (the disaggregated scheduler on
 * a degenerate decode-only trace reproduces the plain serve() path
 * bit-for-bit across all five design modes; preemption-on with no
 * high-priority traffic equals preemption-off), preemption actually
 * firing and cutting high-priority latency, and retire-order residency
 * admission (a full budget admits and evicts nothing).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
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
// EngineState park/resume

TEST(EngineParkTest, ParkAndImmediateResumeIsBitIdentical)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 5; ++i) {
        prog.ops.push_back(make_op(i, dram, 2e-4, 2048, 4096));
    }
    prog.finalize_default_order();

    sim::Engine engine(machine);
    sim::SimResult one_shot = engine.run(prog);

    sim::EngineState state(machine);
    state.begin(prog);
    int steps = 0;
    while (state.step()) {
        if (++steps == 7) {
            // Park at a step boundary and put the frame right back.
            sim::EngineState::Parked parked = state.park();
            EXPECT_TRUE(state.done());
            state.resume(std::move(parked));
            EXPECT_FALSE(state.done());
        }
    }
    sim::SimResult resumed = state.finish();
    EXPECT_EQ(one_shot.serialize_bits(), resumed.serialize_bits());
}

// The satellite acceptance check: a program preempted at a step
// boundary — with a full other program executed on the same state in
// between — resumes to a bit-identical SimResult, because its frame
// (flows, timers, local clock) was frozen whole.
TEST(EngineParkTest, InterleavedProgramLeavesVictimBitIdentical)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram victim;
    for (int i = 0; i < 5; ++i) {
        victim.ops.push_back(make_op(i, dram, 2e-4, 2048, 4096));
    }
    victim.finalize_default_order();
    sim::SimProgram interloper;
    for (int i = 0; i < 3; ++i) {
        // Disjoint op-id namespace, like a prefill program.
        interloper.ops.push_back(
            make_op(1000 + i, dram / 2, 1e-4, 1024, 2048));
    }
    interloper.finalize_default_order();

    sim::Engine engine(machine);
    sim::SimResult victim_alone = engine.run(victim);
    sim::SimResult interloper_alone = engine.run(interloper);

    sim::EngineState state(machine);
    state.begin(victim);
    for (int s = 0; s < 9; ++s) {
        ASSERT_TRUE(state.step());
    }
    double park_clock = state.now();
    sim::EngineState::Parked parked = state.park();
    EXPECT_DOUBLE_EQ(state.now(), park_clock);

    state.begin(interloper);
    while (state.step()) {
    }
    sim::SimResult mid = state.finish();
    // The interloper's own timing is unaffected, but its SRAM peak
    // correctly includes the parked victim's in-flight footprint.
    EXPECT_EQ(interloper_alone.total_time, mid.total_time);
    EXPECT_EQ(interloper_alone.preload_only, mid.preload_only);
    EXPECT_EQ(interloper_alone.overlapped, mid.overlapped);
    EXPECT_GT(mid.peak_sram_per_core,
              interloper_alone.peak_sram_per_core);
    double resume_clock = state.now();
    EXPECT_GT(resume_clock, park_clock);

    state.resume(std::move(parked));
    EXPECT_DOUBLE_EQ(state.now(), resume_clock);  // clock monotone
    while (state.step()) {
    }
    sim::SimResult after = state.finish();
    EXPECT_EQ(victim_alone.serialize_bits(), after.serialize_bits());
}

TEST(EngineParkTest, PinnedResidentEntriesSurviveTheInterloper)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 3; ++i) {
        prog.ops.push_back(make_op(i, dram, 1e-4, 4096, 8192));
    }
    prog.finalize_default_order();
    sim::SimProgram other;
    other.ops.push_back(make_op(500, dram, 1e-4, 4096, 8192));
    other.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = machine.config().usable_sram_per_core();
    sim::EngineState state(machine, opts);
    state.begin(prog);
    while (state.step()) {
    }
    state.finish();
    ASSERT_EQ(state.resident_ops(), 3);

    // Second run of prog hits residency; park it mid-flight (entries
    // pinned by its instant preloads), run another program, resume.
    state.begin(prog);
    for (int s = 0; s < 2; ++s) {
        ASSERT_TRUE(state.step());
    }
    sim::EngineState::Parked parked = state.park();
    state.begin(other);
    while (state.step()) {
    }
    state.finish();
    // The interloper's begin() must not evict the victim's pinned
    // entries even though their op ids are absent from its program.
    EXPECT_GE(state.resident_ops(), 3);
    state.resume(std::move(parked));
    while (state.step()) {
    }
    sim::SimResult warm = state.finish();
    EXPECT_DOUBLE_EQ(warm.preload_only, 0.0);
    EXPECT_EQ(state.resident_hits(), 3);
}

// Regression: while a program that real-preloaded op X is parked, an
// interleaved run of the same program retires X and admits a resident
// entry for it. The victim's retire must not credit the entry's bytes
// a second time — the occupancy leak would permanently inflate every
// later iteration's SRAM peak.
TEST(EngineParkTest, InterleavedAdmissionDoesNotLeakOccupancy)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-3;
    sim::SimProgram prog;
    for (int i = 0; i < 3; ++i) {
        prog.ops.push_back(make_op(i, dram, 1e-4, 4096, 8192));
    }
    prog.finalize_default_order();

    sim::EngineState::Options opts;
    opts.residency_budget = machine.config().usable_sram_per_core();

    auto warm_run = [&](sim::EngineState& state) {
        state.begin(prog);
        while (state.step()) {
        }
        return state.finish();
    };

    // Clean reference: cold run retains all entries, then a warm run.
    sim::EngineState clean(machine, opts);
    warm_run(clean);
    sim::SimResult warm_clean = warm_run(clean);

    // Leak candidate: park the cold run before op 0 retires, run the
    // same program to completion (admitting entries), resume.
    sim::EngineState state(machine, opts);
    state.begin(prog);
    ASSERT_TRUE(state.step());
    ASSERT_TRUE(state.step());  // op 0 preloading/executing, unretired
    sim::EngineState::Parked parked = state.park();
    warm_run(state);  // interleaved full run admits all entries
    state.resume(std::move(parked));
    while (state.step()) {
    }
    state.finish();

    sim::SimResult warm_after = warm_run(state);
    EXPECT_EQ(warm_clean.serialize_bits(), warm_after.serialize_bits());
}

// ---------------------------------------------------------------------------
// Residency admission

TEST(ResidencyTest, FullBudgetAdmitsNothingAndEvictsNothing)
{
    sim::Machine machine(hw::ChipConfig::tiny(16));
    const double bw = machine.config().hbm_total_bw;
    // Budget fits exactly two 8 KB entries. Ops 0 and 1 retire first;
    // op 2 retires last and saves 4x their HBM traffic per byte.
    const uint64_t space = 8 * 1024;
    sim::SimProgram prog;
    prog.ops.push_back(make_op(0, bw * 1e-4, 1e-4, space, space));
    prog.ops.push_back(make_op(1, bw * 1e-4, 1e-4, space, space));
    prog.ops.push_back(make_op(2, bw * 4e-4, 1e-4, space, space));
    prog.finalize_default_order();

    // First come, first kept: op 2 finds the budget full and is not
    // admitted, and nothing is displaced for it.
    sim::EngineState::Options opts;
    opts.residency_budget = 2 * space;
    sim::EngineState state(machine, opts);
    state.begin(prog);
    while (state.step()) {
    }
    state.finish();
    EXPECT_EQ(state.resident_op_ids(), (std::vector<int>{0, 1}));
    EXPECT_EQ(state.resident_evictions(), 0);
}

// ---------------------------------------------------------------------------
// Disaggregated serving

class DisaggTest : public ::testing::Test {
  protected:
    compiler::PlanCache cache_;
};

// Zero-preemption baseline 1: the disaggregated scheduler on a
// degenerate trace (decode-only, all normal priority) reproduces the
// PR 2 serve() path bit-for-bit, across all five design modes.
TEST_F(DisaggTest, DegenerateTraceMatchesPlainServeAllModes)
{
    auto arrivals = runtime::ArrivalTrace::poisson(12, 3000.0, 7);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = testing::serving_compiler(
            compiler::GraphKind::kDecode, mode, 128, &cache_);
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
        EXPECT_EQ(disagg.prefill_iterations, 0);
        EXPECT_EQ(disagg.preemptions, 0);
    }
}

// Zero-preemption baseline 2: with no high-priority traffic, running
// with preemption enabled is bit-identical to preemption disabled on
// a mixed prefill/decode trace.
TEST_F(DisaggTest, PreemptionOnWithoutHighTrafficIsBitIdentical)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, 128, &cache_);
    auto requests = runtime::prefill_requests(
        runtime::ArrivalTrace::poisson(10, 2000.0, 3), 3);

    runtime::ServerOptions on;
    on.max_batch = 4;
    on.max_prefill_batch = 2;
    on.max_prompt_len = 128;
    on.preempt = true;
    runtime::ServerOptions off = on;
    off.preempt = false;

    auto serve = [&](const runtime::ServerOptions& o) {
        runtime::Server server(dc.machine(), o);
        return server.serve(
            requests, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto rep_on = serve(on);
    auto rep_off = serve(off);
    EXPECT_EQ(rep_on.serialize_bits(), rep_off.serialize_bits());
    EXPECT_EQ(rep_on.preemptions, 0);
    EXPECT_GT(rep_on.prefill_iterations, 0);
    EXPECT_GT(rep_on.decode_iterations, 0);
    EXPECT_GT(rep_on.p50_ttft, 0.0);
}

// A long normal decode phase is in flight when a high-priority
// prefill request lands: with preemption it is served mid-iteration
// (parked victim, nested prefill), without it waits for boundaries.
TEST_F(DisaggTest, HighPriorityArrivalPreemptsAndCutsItsLatency)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, 128, &cache_);

    std::vector<runtime::Request> requests;
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = 24;
        requests.push_back(r);
    }
    runtime::Request vip;
    vip.arrival = 1e-4;  // lands mid decode-iteration
    vip.phase = runtime::Phase::kPrefill;
    vip.priority = runtime::Priority::kHigh;
    vip.decode_tokens = 2;
    requests.push_back(vip);

    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 2;
    sopts.max_prompt_len = 128;
    auto serve = [&](bool preempt) {
        runtime::ServerOptions o = sopts;
        o.preempt = preempt;
        runtime::Server server(dc.machine(), o);
        return server.serve(
            requests, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };

    auto with = serve(true);
    auto without = serve(false);
    EXPECT_GE(with.preemptions, 1);
    EXPECT_EQ(without.preemptions, 0);
    EXPECT_EQ(with.high_priority_requests, 1);
    // Preemption serves the VIP's prefill mid-iteration: its first
    // token comes strictly earlier.
    EXPECT_LT(with.p95_ttft, without.p95_ttft);
    EXPECT_LE(with.p95_high_latency, without.p95_high_latency);
    // All requests complete under both policies.
    EXPECT_EQ(with.requests, 5);
    EXPECT_EQ(with.tokens, without.tokens);
    // The nested (preemption) iteration must not size the residency
    // budget: steady decode still runs warm afterwards.
    EXPECT_GT(with.preloads_skipped, 0);
    EXPECT_FALSE(with.memory_exceeded);
}

// Disaggregation shares one residency pool: decode weights stay
// resident across interleaved prefill iterations (disjoint op-id
// namespaces), so steady decode preloads still hit.
TEST_F(DisaggTest, DecodeResidencySurvivesPrefillInterleaving)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, 128, &cache_);

    // Staggered prefill arrivals force prefill iterations between
    // decode iterations of the earlier requests.
    std::vector<runtime::Request> requests;
    for (int i = 0; i < 6; ++i) {
        runtime::Request r;
        r.arrival = i * 2e-3;
        r.phase = runtime::Phase::kPrefill;
        r.decode_tokens = 6;
        requests.push_back(r);
    }
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 1;
    sopts.max_prompt_len = 128;
    runtime::Server server(dc.machine(), sopts);
    auto rep = server.serve(
        requests, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.prefill_iterations, 6);
    EXPECT_GT(rep.decode_iterations, 6);
    EXPECT_GT(rep.preloads_skipped, 0);
    EXPECT_LT(rep.steady_decode_preload, rep.first_decode_preload);
    EXPECT_FALSE(rep.memory_exceeded);
}

// The engine replays a repeated iteration only when its last event
// lies strictly before the next watcher arrival. A high-priority
// arrival exactly at a repeated iteration's last event must still trip
// the watcher there, and one an ulp later must not change anything.
// The plain serve(arrivals) reference loop has no priority classes,
// so it anchors the all-normal probe; the two priority traces are held
// to the same serve fed a fresh copy of every program, which the
// engine has never recorded and so never replays.
TEST_F(DisaggTest, HighArrivalAtRepeatedIterationEndMatchesUnmemoized)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, 128, &cache_);
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.tokens_per_request = 10;  // the reference loop's probe length
    runtime::Server server(dc.machine(), sopts);
    auto memo_src = [&](int b) { return dc.program(b); };
    auto fresh_src = [&](int b) {
        return std::make_shared<const sim::SimProgram>(*dc.program(b));
    };
    auto normal = [](double arrival, int tokens) {
        runtime::Request r;
        r.arrival = arrival;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = tokens;
        return r;
    };

    // Four requests decoding 10 tokens in one batch all complete at
    // the end of the tenth iteration, so max_latency is its last event
    // time. On this chip the residency pool settles by the seventh
    // iteration; every later one repeats it (same program, same pool).
    std::vector<runtime::Request> probe(4, normal(0.0, 10));
    const auto probe_rep = server.serve(probe, nullptr, memo_src);
    EXPECT_EQ(probe_rep.serialize_bits(),
              server.serve(std::vector<double>(4, 0.0), memo_src)
                  .serialize_bits());
    const double t_end = probe_rep.max_latency;
    ASSERT_GT(t_end, 0.0);

    for (double arrival :
         {t_end, std::nextafter(t_end,
                                std::numeric_limits<double>::infinity())}) {
        std::vector<runtime::Request> requests(4, normal(0.0, 14));
        runtime::Request vip = normal(arrival, 2);
        vip.priority = runtime::Priority::kHigh;
        requests.push_back(vip);
        const auto memo = server.serve(requests, nullptr, memo_src);
        const auto fresh = server.serve(requests, nullptr, fresh_src);
        EXPECT_EQ(memo.serialize_bits(), fresh.serialize_bits())
            << "vip arrival " << arrival;
        EXPECT_EQ(memo.requests, 5);
        EXPECT_GE(memo.preemptions, 1);
    }
}

}  // namespace
}  // namespace elk
