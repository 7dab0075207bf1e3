/**
 * @file
 * Variable-length prefill tests: bucket selection (smallest covering
 * bucket, exact fit, overflow to the largest), the seeded prompt
 * length distribution, padding-waste accounting, the full-length
 * bit-identity anchor (a trace where every prompt is the model
 * sequence length reproduces the fixed-shape PR 3 scheduler
 * bit-for-bit across all five design modes), the TTFT/padding win of
 * bucketed prefill on short prompts, and the plan-cache partition
 * keys of the (batch, prompt-length) grid, and the worded fatal on a
 * bad bucket ladder or request.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "test_helpers.h"

namespace elk {
namespace {

constexpr int kSeq = 128;  ///< model sequence length of the fixture.

// ---------------------------------------------------------------------------
// Bucket selection and the prompt-length distribution

TEST(PickBucketTest, SmallestCoveringExactFitAndOverflow)
{
    const std::vector<int> buckets = {16, 64, 128};
    EXPECT_EQ(runtime::pick_bucket(buckets, 1), 16);
    EXPECT_EQ(runtime::pick_bucket(buckets, 16), 16);   // exact fit
    EXPECT_EQ(runtime::pick_bucket(buckets, 17), 64);   // next cover
    EXPECT_EQ(runtime::pick_bucket(buckets, 128), 128);
    EXPECT_EQ(runtime::pick_bucket(buckets, 400), 128);  // overflow
    // Overflow clamps to the largest bucket no matter how far past
    // it the need lands, including the single-bucket degenerate grid.
    EXPECT_EQ(runtime::pick_bucket(buckets, 129), 128);
    EXPECT_EQ(runtime::pick_bucket({64}, 1), 64);
    EXPECT_EQ(runtime::pick_bucket({64}, 1 << 20), 64);
}

TEST(TagPromptLengthsTest, SeededBoundedAndPhaseIndependent)
{
    auto arrivals = runtime::ArrivalTrace::poisson(200, 1000.0, 3);
    auto a = runtime::make_request_trace(arrivals, 2, 1.0, 0.0, 3);
    auto b = a;
    runtime::tag_prompt_lengths(a, 512, 64.0, 9);
    runtime::tag_prompt_lengths(b, 512, 64.0, 9);
    int longest = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_GE(a[i].prompt_len, 1);
        EXPECT_LE(a[i].prompt_len, 512);
        longest = std::max(longest, a[i].prompt_len);
    }
    // A geometric tail of mean 64 spreads well past its mean.
    EXPECT_GT(longest, 64);

    // Different seed, different lengths; the tagging draws one value
    // per request regardless of phase, so a decode-heavy trace gets
    // the same length sequence as an all-prefill one.
    auto c = b;
    runtime::tag_prompt_lengths(c, 512, 64.0, 10);
    EXPECT_NE(a[0].prompt_len * 1000 + a[1].prompt_len,
              c[0].prompt_len * 1000 + c[1].prompt_len);
    auto mixed = runtime::make_request_trace(arrivals, 2, 0.3, 0.0, 3);
    runtime::tag_prompt_lengths(mixed, 512, 64.0, 9);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(mixed[i].prompt_len, a[i].prompt_len);
    }
}

// ---------------------------------------------------------------------------
// The serving fixture

class VarlenTest : public ::testing::Test {
  protected:
    /// @p prompt_lens become prefill requests all arriving at t = 0.
    static std::vector<runtime::Request>
    prompts(const std::vector<int>& prompt_lens, int decode_tokens = 1)
    {
        std::vector<runtime::Request> out;
        for (int len : prompt_lens) {
            runtime::Request r;
            r.phase = runtime::Phase::kPrefill;
            r.decode_tokens = decode_tokens;
            r.prompt_len = len;
            out.push_back(r);
        }
        return out;
    }

    runtime::ServingReport
    serve(compiler::ServingCompiler& pc, compiler::ServingCompiler& dc,
          const std::vector<runtime::Request>& requests,
          runtime::ServerOptions sopts)
    {
        sopts.max_prompt_len = kSeq;
        runtime::Server server(dc.machine(), sopts);
        return server.serve(
            requests,
            [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    }

    compiler::PlanCache cache_;
};

TEST_F(VarlenTest, PaddingWasteAccountsActualVsBucketTokens)
{
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkDyn, kSeq, &cache_);
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkDyn, kSeq, &cache_);
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 4;
    sopts.prompt_buckets = {16, 64, kSeq};

    // One prefill iteration: 3 prompts pad the batch bucket to 4 and
    // the longest prompt (60) picks the 64-token length bucket.
    auto rep = serve(pc, dc, prompts({5, 9, 60}), sopts);
    EXPECT_EQ(rep.prefill_iterations, 1);
    EXPECT_EQ(rep.prompt_tokens, 5 + 9 + 60);
    EXPECT_EQ(rep.padded_prompt_tokens, 4 * 64 - (5 + 9 + 60));
    ASSERT_EQ(rep.prefill_bucket_iterations.size(), 1u);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].batch, 4);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].prompt_len, 64);
    EXPECT_EQ(rep.prefill_bucket_iterations[0].iterations, 1);
    EXPECT_GT(rep.mean_ttft, 0.0);
}

TEST_F(VarlenTest, ExactFitPromptsPadNothing)
{
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkDyn, kSeq, &cache_);
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkDyn, kSeq, &cache_);
    runtime::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_prefill_batch = 2;
    sopts.prompt_buckets = {16, kSeq};

    auto rep = serve(pc, dc, prompts({16, 16}), sopts);
    EXPECT_EQ(rep.prefill_iterations, 1);
    EXPECT_EQ(rep.prompt_tokens, 32);
    EXPECT_EQ(rep.padded_prompt_tokens, 0);
}

// The tentpole acceptance anchor: a trace where every prompt is the
// model sequence length (prompt_len = 0, the default) served through
// the bucket grid is bit-identical to the same trace forced through
// full-length prefill — the fixed-shape PR 3 scheduler — in all five
// design modes. The grid only changes behavior when a prompt is
// actually short.
TEST_F(VarlenTest, FullLengthTraceMatchesForcedFullPrefillAllModes)
{
    auto requests = runtime::prefill_requests(
        runtime::ArrivalTrace::poisson(8, 2000.0, 5), 2);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto pc = testing::serving_compiler(
            compiler::GraphKind::kPrefill, mode, kSeq, &cache_);
        auto dc = testing::serving_compiler(
            compiler::GraphKind::kDecode, mode, kSeq, &cache_);
        runtime::ServerOptions bucketed;
        bucketed.max_batch = 4;
        bucketed.max_prefill_batch = 2;
        runtime::ServerOptions full = bucketed;
        full.prompt_buckets = {kSeq};

        auto rep_grid = serve(pc, dc, requests, bucketed);
        auto rep_full = serve(pc, dc, requests, full);
        EXPECT_EQ(rep_grid.serialize_bits(), rep_full.serialize_bits())
            << compiler::mode_name(mode);

        // Explicit prompt_len == seq is the same request as the
        // prompt_len == 0 default.
        auto explicit_len = requests;
        for (auto& r : explicit_len) {
            r.prompt_len = kSeq;
        }
        auto rep_explicit = serve(pc, dc, explicit_len, bucketed);
        EXPECT_EQ(rep_grid.serialize_bits(),
                  rep_explicit.serialize_bits())
            << compiler::mode_name(mode);
    }
}

// The serving win the bucketing exists for: short prompts through the
// grid beat the same trace forced through full-length prefill on both
// TTFT and padded tokens, completing the same work.
TEST_F(VarlenTest, ShortPromptsLowerTtftAndPaddingVsFullLength)
{
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto requests = prompts({5, 12, 9, 16, 7, 3}, /*decode_tokens=*/2);

    runtime::ServerOptions bucketed;
    bucketed.max_batch = 4;
    bucketed.max_prefill_batch = 2;
    runtime::ServerOptions full = bucketed;
    full.prompt_buckets = {kSeq};

    auto rep_grid = serve(pc, dc, requests, bucketed);
    auto rep_full = serve(pc, dc, requests, full);
    EXPECT_EQ(rep_grid.requests, rep_full.requests);
    EXPECT_EQ(rep_grid.tokens, rep_full.tokens);
    EXPECT_EQ(rep_grid.prompt_tokens, rep_full.prompt_tokens);
    EXPECT_LT(rep_grid.mean_ttft, rep_full.mean_ttft);
    EXPECT_LT(rep_grid.padded_prompt_tokens,
              rep_full.padded_prompt_tokens);
    // The grid compiled short buckets; forced full-length only kSeq.
    for (const auto& b : rep_grid.prefill_bucket_iterations) {
        EXPECT_LT(b.prompt_len, kSeq);
    }
    for (const auto& b : rep_full.prefill_bucket_iterations) {
        EXPECT_EQ(b.prompt_len, kSeq);
    }
}

// ---------------------------------------------------------------------------
// The compile side of the grid

TEST_F(VarlenTest, PlanCacheKeysPartitionPrefillLengthBuckets)
{
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkDyn, kSeq, &cache_);
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkDyn, kSeq, &cache_);
    auto p16 = pc.program(1, 16);
    auto p128 = pc.program(1, kSeq);
    auto d4 = dc.program(4);
    ASSERT_NE(p16, nullptr);
    ASSERT_NE(p128, nullptr);
    ASSERT_NE(d4, nullptr);

    auto keys = cache_.keys();
    ASSERT_EQ(keys.size(), 3u);
    auto contains = [&](const std::string& needle) {
        for (const auto& key : keys) {
            if (key.find(needle) != std::string::npos) {
                return true;
            }
        }
        return false;
    };
    // Prefill length buckets carry their sequence length in the key;
    // the decode partition sits at the model sequence length under
    // the decode graph name (no "-fwd").
    EXPECT_TRUE(contains("-fwd") && contains("|s16|"));
    EXPECT_TRUE(contains("|s128|"));

    // Length buckets live in disjoint op-id namespaces (per
    // power-of-two band), and both clear the decode namespace.
    auto id_range = [](const sim::SimProgram& p) {
        int lo = p.ops.front().op_id, hi = p.ops.front().op_id;
        for (const auto& op : p.ops) {
            lo = std::min(lo, op.op_id);
            hi = std::max(hi, op.op_id);
        }
        return std::make_pair(lo, hi);
    };
    auto [lo16, hi16] = id_range(*p16);
    auto [lo128, hi128] = id_range(*p128);
    auto [lo_d, hi_d] = id_range(*d4);
    EXPECT_LT(hi_d, compiler::ServingCompiler::kPrefillIdOffset);
    EXPECT_GT(lo16, hi_d);
    EXPECT_TRUE(hi16 < lo128 || hi128 < lo16);
}

TEST_F(VarlenTest, MakePlanKeySeparatesSequenceLengths)
{
    auto g16 = graph::build_forward_graph(testing::tiny_llm(), 2, 16);
    auto g64 = graph::build_forward_graph(testing::tiny_llm(), 2, 64);
    compiler::CompileOptions opts;
    auto k16 = compiler::make_plan_key(g16, testing::tiny_chip(), opts);
    auto k64 = compiler::make_plan_key(g64, testing::tiny_chip(), opts);
    EXPECT_EQ(k16.seq, 16);
    EXPECT_EQ(k64.seq, 64);
    EXPECT_TRUE(k16 < k64 || k64 < k16);
}

TEST_F(VarlenTest, DecodeFamilyRejectsShortLengths)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kBasic, kSeq, &cache_);
    EXPECT_DEATH(dc.program(1, 16), "model sequence length");
}

// A bad bucket ladder or request is a user error: a worded fatal
// (exit 1), never an internal panic.
TEST(ServerInputDeathTest, BadBucketsAndRequestsExitWithWordedFatal)
{
    sim::Machine machine(testing::tiny_chip());
    runtime::ServerOptions sopts;
    sopts.max_prompt_len = kSeq;
    sopts.prompt_buckets = {16, 64};
    EXPECT_EXIT(runtime::Server(machine, sopts),
                ::testing::ExitedWithCode(1),
                "\\[elk FATAL\\] Server: largest prompt bucket must equal");

    // A repeated length is one bucket, not a ladder: chunked prefill
    // would pad every chunk to it.
    sopts.prompt_buckets = {kSeq, kSeq};
    EXPECT_EXIT(runtime::Server(machine, sopts),
                ::testing::ExitedWithCode(1),
                "\\[elk FATAL\\] Server: prompt buckets must be distinct");

    sopts.prompt_buckets.clear();
    runtime::Server server(machine, sopts);
    std::vector<runtime::Request> requests(1);
    requests[0].phase = runtime::Phase::kPrefill;
    requests[0].prompt_len = kSeq + 1;
    EXPECT_EXIT(server.serve(requests, {}, {}),
                ::testing::ExitedWithCode(1),
                "\\[elk FATAL\\] Server: prompt_len must be in");
}

}  // namespace
}  // namespace elk
