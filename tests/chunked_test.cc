/**
 * @file
 * Chunked prefill tests: the chunk-off / single-chunk bit-identity
 * anchor across all five design modes (plain and KV-modeled), the
 * chunk_plan() split math, TTFT firing on the final chunk, per-chunk
 * KV growth (ramped mean, unchanged peak) surviving a park/resume
 * cycle, decode interleaving between the chunks of a long prompt,
 * the starvation cap, KV-locality skip accounting, and death tests
 * for invalid chunk sizes and locality without KV modeling.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "test_helpers.h"

namespace elk {
namespace {

class ChunkedServingTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    /// Plain (KV-free) varlen serving options.
    runtime::ServerOptions
    plain_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        return sopts;
    }

    /// ServerOptions with KV modeling on and room for a few
    /// full-length segments per core.
    runtime::ServerOptions
    kv_options() const
    {
        runtime::ServerOptions sopts = plain_options();
        sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
        sopts.kv_budget = 4 * kSeq * testing::tiny_kv_bytes_per_token() / 64;
        return sopts;
    }

    /// One full-length prefill-only prompt (decode_tokens = 0, so the
    /// request completes — and TTFT fires — when its last prompt
    /// token is ingested).
    std::vector<runtime::Request>
    long_prompt_trace() const
    {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = runtime::Phase::kPrefill;
        r.decode_tokens = 0;
        r.prompt_len = kSeq;
        return {r};
    }

    compiler::PlanCache cache_;
};

// ---------------------------------------------------------------------------
// chunk_plan() split math

TEST_F(ChunkedServingTest, ChunkPlanSplitsFullChunksPlusResidual)
{
    EXPECT_EQ(runtime::chunk_plan(100, 32),
              (std::vector<int>{32, 32, 32, 4}));
    EXPECT_EQ(runtime::chunk_plan(128, 32),
              (std::vector<int>{32, 32, 32, 32}));
    EXPECT_EQ(runtime::chunk_plan(129, 128),
              (std::vector<int>{128, 1}));
    // A prompt no longer than the chunk is a single chunk — the
    // degenerate case the bit-identity anchor rides on.
    EXPECT_EQ(runtime::chunk_plan(17, 32), (std::vector<int>{17}));
    EXPECT_EQ(runtime::chunk_plan(32, 32), (std::vector<int>{32}));
    EXPECT_EQ(runtime::chunk_plan(1, 1), (std::vector<int>{1}));
    // The pieces always partition the prompt and only the last may be
    // short.
    for (int len : {1, 7, 64, 100, 127, 128}) {
        auto plan = runtime::chunk_plan(len, 16);
        int sum = 0;
        for (size_t i = 0; i < plan.size(); ++i) {
            sum += plan[i];
            if (i + 1 < plan.size()) {
                EXPECT_EQ(plan[i], 16);
            }
            EXPECT_GE(plan[i], 1);
            EXPECT_LE(plan[i], 16);
        }
        EXPECT_EQ(sum, len);
    }
}

// ---------------------------------------------------------------------------
// The acceptance anchor: prefill_chunk large enough that every prompt
// fits one chunk reproduces the unchunked scheduler bit-for-bit —
// across all five design modes, on a mixed-priority mixed-phase trace
// of full-length prompts. (Equal lengths keep the length-aware
// prefill order identical to FIFO: remaining length ties on every
// request, deadlines are +inf, so the (deadline, remaining, id) sort
// degenerates to exactly the id order the unchunked queues hold.)

TEST_F(ChunkedServingTest, SingleChunkIsBitIdenticalAcrossModes)
{
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(10, 2500.0, 7), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.25, 7);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = testing::serving_compiler(
            compiler::GraphKind::kDecode, mode, kSeq, &cache_);
        auto pc = testing::serving_compiler(
            compiler::GraphKind::kPrefill, mode, kSeq, &cache_);
        auto serve = [&](int chunk) {
            runtime::ServerOptions sopts = plain_options();
            sopts.prefill_chunk = chunk;
            runtime::Server s(dc.machine(), sopts);
            return s.serve(
                trace,
                [&](int b, int len) { return pc.program(b, len); },
                [&](int b) { return dc.program(b); });
        };
        auto off = serve(0);
        auto on = serve(kSeq);
        EXPECT_EQ(off.prefill_chunk, 0);
        EXPECT_EQ(on.prefill_chunk, kSeq);
        // Single-chunk prompts: one chunk claim per prefill prompt,
        // nothing ever mid-prompt, so no interleaves either.
        EXPECT_EQ(on.chunked_prompts, 0);
        EXPECT_EQ(on.chunk_decode_interleaves, 0);
        EXPECT_GT(on.prefill_chunks, 0);
        EXPECT_EQ(off.prefill_chunks, 0);
        on.prefill_chunk = 0;
        on.prefill_chunks = 0;
        EXPECT_EQ(off.serialize_bits(), on.serialize_bits())
            << compiler::mode_name(mode);
    }
}

// The same anchor with KV modeling on: single-chunk admission gates
// on the full prompt's KV need and allocates the same segments in the
// same order, so the KV counters match byte-for-byte too.
TEST_F(ChunkedServingTest, SingleChunkWithKvIsBitIdentical)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(12, 2500.0, 9), 3,
        /*prefill_frac=*/1.0, /*high_frac=*/0.0, 9);
    auto serve = [&](int chunk) {
        runtime::ServerOptions sopts = kv_options();
        sopts.prefill_chunk = chunk;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto off = serve(0);
    auto on = serve(kSeq);
    ASSERT_TRUE(on.kv_modeled);
    EXPECT_EQ(on.kv_bytes_peak, off.kv_bytes_peak);
    EXPECT_EQ(on.deferred_admissions, off.deferred_admissions);
    on.prefill_chunk = 0;
    on.prefill_chunks = 0;
    EXPECT_EQ(off.serialize_bits(), on.serialize_bits());
}

// ---------------------------------------------------------------------------
// TTFT fires when the final chunk retires

TEST_F(ChunkedServingTest, TtftFiresWhenFinalChunkRetires)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto serve = [&](int chunk) {
        runtime::ServerOptions sopts = plain_options();
        sopts.prefill_chunk = chunk;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            long_prompt_trace(),
            [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto off = serve(0);
    EXPECT_EQ(off.prefill_iterations, 1);

    auto rep = serve(32);  // chunk_plan(128, 32) = {32, 32, 32, 32}
    EXPECT_EQ(rep.requests, 1);
    EXPECT_EQ(rep.prefill_iterations, 4);
    EXPECT_EQ(rep.prefill_chunks, 4);
    EXPECT_EQ(rep.chunked_prompts, 1);
    // Nothing decodes, so no interleaving either.
    EXPECT_EQ(rep.chunk_decode_interleaves, 0);
    // Every chunk runs from the (batch 1, len 32) bucket.
    ASSERT_EQ(rep.prefill_bucket_iterations.size(), 1u);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].batch, 1);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].prompt_len, 32);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].iterations, 4);
    // All 128 prompt tokens were ingested exactly once, across the
    // chunks.
    EXPECT_EQ(rep.prompt_tokens, kSeq);
    EXPECT_EQ(rep.prompt_tokens, off.prompt_tokens);
    // TTFT is the *final* chunk's retirement — the whole serve, since
    // this request is all the serve does.
    EXPECT_GT(rep.max_ttft, 0.0);
    EXPECT_DOUBLE_EQ(rep.max_ttft, rep.makespan);
    EXPECT_DOUBLE_EQ(rep.mean_ttft, rep.max_ttft);
}

// ---------------------------------------------------------------------------
// Per-chunk KV growth

// Chunking does not change how much KV the prompt ends up owning
// (decode needs the full context), only *when* it appears: the peak
// matches the unchunked serve while the time-weighted mean ramps up
// chunk by chunk instead of sitting at the full size from the first
// iteration.
TEST_F(ChunkedServingTest, KvGrowsPerChunkRampingTheMean)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto serve = [&](int chunk) {
        runtime::ServerOptions sopts = kv_options();
        sopts.prefill_chunk = chunk;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            long_prompt_trace(),
            [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto off = serve(0);
    auto on = serve(16);
    ASSERT_TRUE(on.kv_modeled);
    EXPECT_GT(on.kv_bytes_peak, 0u);
    EXPECT_EQ(on.kv_bytes_peak, off.kv_bytes_peak);
    EXPECT_LT(on.mean_kv_bytes, off.mean_kv_bytes);
    EXPECT_EQ(on.kv_evictions, 0);
    EXPECT_EQ(on.deferred_admissions, 0);
}

// The per-chunk growth choreography survives a preemption mid-
// sequence: a high-priority prompt parks the long prompt's chunk
// iteration, runs its own (chunked) prefill in the nested frame, and
// both segments keep growing to completion — the engine's pin/grow
// checks would panic on any mis-sequenced KV call.
TEST_F(ChunkedServingTest, KvGrowthSurvivesParkAndResume)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto trace = long_prompt_trace();
    runtime::Request high;
    high.arrival = 1e-4;  // lands mid-chunk-sequence
    high.phase = runtime::Phase::kPrefill;
    high.priority = runtime::Priority::kHigh;
    high.decode_tokens = 0;
    high.prompt_len = 64;
    trace.push_back(high);

    runtime::ServerOptions sopts = kv_options();
    sopts.prefill_chunk = 32;
    runtime::Server s(dc.machine(), sopts);
    auto rep = s.serve(
        trace, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.requests, 2);
    EXPECT_GE(rep.preemptions, 1);
    // chunk_plan(128, 32) + chunk_plan(64, 32) chunks, each claimed
    // exactly once despite the parked frame.
    EXPECT_EQ(rep.prefill_chunks, 4 + 2);
    EXPECT_EQ(rep.chunked_prompts, 2);
    EXPECT_EQ(rep.prompt_tokens, 128 + 64);
    EXPECT_GT(rep.kv_bytes_peak, 0u);
}

// ---------------------------------------------------------------------------
// Decode interleaving between chunks

// With decode work waiting, the scheduler yields one decode iteration
// between the chunks of a long prompt — so decode latency stops
// queueing behind the whole prompt and its p50 strictly improves over
// the unchunked serve of the same trace.
TEST_F(ChunkedServingTest, ChunksInterleaveWaitingDecode)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto trace = long_prompt_trace();
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = 2;
        trace.push_back(r);
    }
    auto serve = [&](int chunk) {
        runtime::ServerOptions sopts = plain_options();
        sopts.prefill_chunk = chunk;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto off = serve(0);
    auto on = serve(16);
    EXPECT_EQ(off.chunk_decode_interleaves, 0);
    EXPECT_GT(on.chunk_decode_interleaves, 0);
    // Same work either way...
    EXPECT_EQ(on.requests, off.requests);
    EXPECT_EQ(on.tokens, off.tokens);
    EXPECT_EQ(on.prompt_tokens, off.prompt_tokens);
    // ...but the decode-phase requests (the latency median over this
    // trace) stop waiting for the whole 128-token prefill.
    EXPECT_LT(on.p50_latency, off.p50_latency);
}

// ---------------------------------------------------------------------------
// The starvation cap

// Length-aware claiming puts every 4-token prompt ahead of a 128-token
// one, but a prompt passed over by 8 prefill claims is starved and
// claims next. One prompt per claim, with a fresh short always waiting
// (each short waits only a few claims, so it never starves itself):
// the long prompt's chunks run on exactly every 9th claim.
TEST_F(ChunkedServingTest, StarvedPromptClaimsEveryNinthPass)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    constexpr int kChunk = 16;
    constexpr int kLongChunks = kSeq / kChunk;
    constexpr int kShorts = 9 * kLongChunks;
    runtime::ServerOptions sopts = plain_options();
    sopts.max_prefill_batch = 1;
    sopts.prefill_chunk = kChunk;
    // Weights re-preload every iteration, so each program always takes
    // the same time and the arrival stream can be paced to it.
    sopts.keep_resident = false;
    std::vector<std::pair<int, int>> claims;  // (batch, len) per claim
    auto serve = [&](const std::vector<runtime::Request>& trace) {
        claims.clear();
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            trace,
            [&](int b, int len) {
                claims.emplace_back(b, len);
                return pc.program(b, len);
            },
            [&](int b) { return dc.program(b); });
    };
    runtime::Request short_req = long_prompt_trace().front();
    short_req.prompt_len = 4;
    const double short_s = serve({short_req}).makespan;
    const double chunk_s = serve(long_prompt_trace()).makespan / kLongChunks;
    ASSERT_GT(short_s, 0.0);

    // After a head start of 4, shorts arrive at the rate a 9-claim
    // cycle (8 shorts + 1 chunk) serves them, so the backlog of shorts
    // only swings by about one around 4.
    const double gap = short_s + chunk_s / 8;
    auto trace = long_prompt_trace();
    for (int i = 0; i < kShorts; ++i) {
        short_req.arrival = i < 4 ? 0.0 : (i - 3) * gap;
        trace.push_back(short_req);
    }
    auto rep = serve(trace);
    EXPECT_EQ(rep.requests, 1 + kShorts);
    ASSERT_EQ(claims.size(), static_cast<size_t>(kLongChunks + kShorts));
    for (size_t i = 0; i < claims.size(); ++i) {
        const bool long_turn = (i + 1) % 9 == 0 && i < 9 * kLongChunks;
        EXPECT_EQ(claims[i], std::make_pair(1, long_turn ? kChunk : 4))
            << "prefill claim " << i + 1;
    }
}

// ---------------------------------------------------------------------------
// KV-locality skip accounting

TEST_F(ChunkedServingTest, LocalitySkipsCountSpilledPassOvers)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    // Decode-phase arrivals start with their KV spilled in HBM (the
    // migrated-request model), so a locality-aware claim passes each
    // one over once before the work-conserving fallback admits it.
    std::vector<runtime::Request> trace;
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = 6;
        trace.push_back(r);
    }
    auto serve = [&](bool locality) {
        runtime::ServerOptions sopts = kv_options();
        sopts.kv_locality = locality;
        runtime::Server s(dc.machine(), sopts);
        return s.serve(
            trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    };
    auto off = serve(false);
    auto on = serve(true);
    EXPECT_FALSE(off.kv_locality);
    EXPECT_EQ(off.kv_locality_skips, 0);
    EXPECT_TRUE(on.kv_locality);
    EXPECT_GT(on.kv_locality_skips, 0);
    // Work-conserving: every request still completes with the same
    // token count.
    EXPECT_EQ(on.requests, off.requests);
    EXPECT_EQ(on.tokens, off.tokens);

    // Two SLO tenants over prefill graduates (born resident) and
    // decode-phase arrivals (born spilled): the resident walk checks
    // the deficit gate before residency, counts each spilled member it
    // passes over, opens no fairness window, and falls back to the full
    // walk only when the batch is still empty. The counts are pinned.
    std::vector<runtime::Request> mixed;
    for (int i = 0; i < 12; ++i) {
        runtime::Request r;
        r.arrival = 0.0;
        r.phase = i % 3 == 2 ? runtime::Phase::kDecode
                             : runtime::Phase::kPrefill;
        r.prompt_len = kSeq / 2;
        r.decode_tokens = 3 + i % 4;
        r.tenant = (i / 2) % 2;
        mixed.push_back(r);
    }
    runtime::ServerOptions sopts = kv_options();
    sopts.kv_locality = true;
    sopts.slo = true;
    sopts.tenants = 2;
    sopts.tenant_shares = {3.0, 1.0};
    runtime::Server s(dc.machine(), sopts);
    auto slo = s.serve(
        mixed, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(slo.kv_locality_skips, 11);
    EXPECT_EQ(slo.fairness_windows, 8);
    EXPECT_EQ(slo.decode_iterations, 19);
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests

using ChunkedDeathTest = ChunkedServingTest;

TEST_F(ChunkedDeathTest, ChunkPlanRejectsBadArgs)
{
    EXPECT_DEATH(runtime::chunk_plan(100, 3),
                 "positive power of two");
    EXPECT_DEATH(runtime::chunk_plan(100, 0),
                 "positive power of two");
    EXPECT_DEATH(runtime::chunk_plan(0, 32),
                 "prompt_len must be >= 1");
}

TEST_F(ChunkedDeathTest, RejectsBadChunkOptions)
{
    sim::Machine machine(testing::tiny_chip());

    runtime::ServerOptions negative = plain_options();
    negative.prefill_chunk = -1;
    EXPECT_DEATH(runtime::Server(machine, negative),
                 "prefill_chunk must be >= 0");

    runtime::ServerOptions odd = plain_options();
    odd.prefill_chunk = 48;
    EXPECT_DEATH(runtime::Server(machine, odd),
                 "must be a power of two");

    runtime::ServerOptions oversize = plain_options();
    oversize.prefill_chunk = 2 * kSeq;
    EXPECT_DEATH(runtime::Server(machine, oversize),
                 "must not exceed");

    // A single full-length prompt bucket would pad every chunk back
    // to the full sequence — chunking needs the varlen ladder.
    runtime::ServerOptions fixed_shape = plain_options();
    fixed_shape.prompt_buckets = {kSeq};
    fixed_shape.prefill_chunk = 32;
    EXPECT_DEATH(runtime::Server(machine, fixed_shape),
                 "multi-entry prompt bucket ladder");
}

TEST_F(ChunkedDeathTest, RejectsLocalityWithoutKvModeling)
{
    sim::Machine machine(testing::tiny_chip());
    runtime::ServerOptions sopts = plain_options();
    sopts.kv_locality = true;
    EXPECT_DEATH(runtime::Server(machine, sopts),
                 "kv_locality needs KV modeling");
}

}  // namespace
}  // namespace elk
