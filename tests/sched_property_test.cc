/**
 * @file
 * Randomized differential scheduler harness: ~200 seeded random
 * configurations (chunk size x KV budget x prefix sharing x SLO shape
 * x locality) over random traces, each serve checked against
 * conservation invariants (every request completes exactly once,
 * prompt tokens partition into ingested + prefix-hit, per-tenant
 * roll-ups partition the totals), against a committed
 * golden digest per config (the scheduler's results may not drift
 * under a refactor), and against itself: serve-twice bit-identity and
 * --jobs 1 vs --jobs 4 compiler bit-identity. Failures print the
 * offending config seed. Plus the SLO + KV empty-claim regression,
 * and backfill units for tag_deadlines(), tag_tenants() and
 * pick_bucket() on residual chunk lengths.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "test_helpers.h"
#include "util/bits.h"

namespace elk {
namespace {

constexpr int kConfigs = 200;

/// FNV-1a digest of ServingReport::serialize_bits() for config i of
/// RandomConfigsConserveAndReproduce (Mode::kStatic / kElkFull
/// programs from the tiny chip). Regenerate only for an intended change
/// of scheduling results, never to make a refactor pass.
constexpr uint64_t kGoldenDigests[kConfigs] = {
    0xce7df75bb4927fa8ull, 0xebf7aebb275a4895ull, 0xd97d23d624933773ull,
    0x3bea64ff8c5031a3ull, 0x7602587d1a08b764ull, 0xd257ee181f7f1c33ull,
    0x36327995c0819061ull, 0x43719502a6650b72ull, 0x315e20081c1db2a5ull,
    0x6bd0158351eb420eull, 0xb32a985c83051185ull, 0x3129aa54f87f098cull,
    0x8d30eda5da39f3c1ull, 0x607bef3463fcd3bcull, 0xc7426bc321fdd043ull,
    0x5e960612453a1169ull, 0x8e6cc25833659d59ull, 0xcc68d3b61bf472bfull,
    0xfc67450a27b6d0a6ull, 0x5938b836b230207dull, 0xda647c429728257full,
    0x3561c43e9072e426ull, 0xd9e60d77e66ebb15ull, 0xad1c85240faddb63ull,
    0x1f441df3b976f230ull, 0x36b1761df1664a59ull, 0x9953706140eba89eull,
    0x27f1c140ff64b608ull, 0xdab89c942b669f82ull, 0xf0b8d7a027834871ull,
    0xb56eed02f7a21236ull, 0x8c3b8c22e465f5bcull, 0x5954ad00bb097707ull,
    0x768dffdea0203547ull, 0x8e662f51bef3c308ull, 0xcb5aeb668f50a695ull,
    0xe5c06a43a584840aull, 0xf8e8c38519fc31cbull, 0x808c7e55131f4c8dull,
    0xb862b6e1c75ba745ull, 0x022d353951fe7a52ull, 0xe69801f800f8809cull,
    0xf7852c2053d64600ull, 0xe75f7f52f5f04d31ull, 0xb26681a7567e9e4dull,
    0x84740ba4ec943dc8ull, 0xfd2706158c9fb3c7ull, 0x374788f6fafd663cull,
    0x623f9544fff8e7b3ull, 0x7deeae67ee51c380ull, 0xdd1ff552a9ff664dull,
    0x29f6a0a016819429ull, 0x72a3220d52817a2dull, 0x1382f0cc3348ea59ull,
    0xdf74ab48ac8712adull, 0xe3330e6becd6779dull, 0x58228b8a1da36281ull,
    0x515b2aaeff29d8bdull, 0x6206816264209398ull, 0xca6bcffdda76fc7dull,
    0xfe958e15466ea8a9ull, 0xd63c01b8791b1ef3ull, 0x0d23eb02f4c0d576ull,
    0xc0b5cf3db75fb2d8ull, 0xfa434d302a36aa3cull, 0x64e5159407a530b4ull,
    0x0654c0bd97adf350ull, 0xf49990d98613f801ull, 0xe61b89425a056fe4ull,
    0xef41ee143752a4a1ull, 0xf2bf5cc894bb2705ull, 0xb1486fd7b47066f3ull,
    0x4f8c1ffae6315c9full, 0x076c0a20eb485180ull, 0x841ceb2b2ad67f48ull,
    0x114a86aa7f76bdbaull, 0xf6467cde33cfc005ull, 0xbac3ba141252c7beull,
    0xe356d1fdd11e961full, 0x532716a28904c8edull, 0xbc48e36028f4befcull,
    0x8b17b080955a575full, 0x6c14c89306630f01ull, 0x73b17379db44286dull,
    0xe8ae512da7fe0cb4ull, 0x95f7852a225523eaull, 0x0806a0031c09cf94ull,
    0x61fabc49e9e34a44ull, 0x9f8c899e61cda108ull, 0xacab4dfc4fdc7311ull,
    0xd059a47cd22e2e62ull, 0x4dcb4ad5ec089e31ull, 0xbfd8a25e88f217ccull,
    0x452c784cef9e9f53ull, 0x20cc31180e0ffacfull, 0xd33a4b14cec23f97ull,
    0x9f64e6b97d561b0cull, 0x3915a361fd7b5a05ull, 0x229e4bdd918b6e3eull,
    0x1c92e80e3c0e1ac9ull, 0xbc7206a86d72882full, 0xedf4c12b62745c82ull,
    0xffe9b8c57c41eb1dull, 0xbe44cb6b1e7761d4ull, 0xdffebd060f8b7b38ull,
    0x0890f4c9c2871572ull, 0xb27a6a48c8934dacull, 0xb58dc4577c4496c0ull,
    0xae1f834ee10e4800ull, 0xedd2e91daf105b73ull, 0xd0845066aa14b8ffull,
    0x6b1c25b588fcb009ull, 0xcc95526b9912ebc0ull, 0x721f632004fb5d3eull,
    0x99231c911864d5c6ull, 0xa4418424bff5a95eull, 0x83c641bf16b70edbull,
    0x08ea41c352c3e835ull, 0x5a4e5aa80c45b143ull, 0xd7934ff64a5cd941ull,
    0xb50025779269732dull, 0x495d0e6342903b1aull, 0xa7738290a6053677ull,
    0xad801fc8389725d3ull, 0xbe71c99e8e88adb2ull, 0x0d09da36d054cfc7ull,
    0x3339e4e4135ea004ull, 0xf0a44aa0ccad9db3ull, 0x6628fb844a227478ull,
    0xe799f052431b62a6ull, 0xacf6b2d9f4b75a05ull, 0x0627a60eb67a8cd7ull,
    0x2dd072ad9d57e9dbull, 0xae17e74530857538ull, 0x5e4e57a79ec00621ull,
    0x89caa1e85a9b2abfull, 0x235a3326687294f9ull, 0xd23d0e1c24caa435ull,
    0xdb4f1f468439c390ull, 0x949d62381be9572bull, 0xf3aed84ee5575459ull,
    0xb40f3d4f3fdd5785ull, 0xf9d6d56ff2983db6ull, 0x17149c561aba16dbull,
    0xd79a81444460ffbdull, 0x6f39d1dc5b0f9facull, 0x89372e23e08f899eull,
    0xbddd0bb12d69e43aull, 0x1b0b1a065b459d26ull, 0xb4c2c3b05a41ffe0ull,
    0x1ac0231b8bdc8704ull, 0x73c04ba87efc83f2ull, 0x59166baacc454069ull,
    0x29fb92e921493f82ull, 0x94d0445efe87a091ull, 0xdfaab76f99fd382eull,
    0xdb45cdcf5b55fd7bull, 0xc9719d0bb3f8a2e6ull, 0xc01487f2b20bb9d0ull,
    0xa433f2dfe8dcbeccull, 0x5cbec24d7c1f23c9ull, 0x1b6b4785f29c98b7ull,
    0xb822a704f1169507ull, 0xbdcd83af4e2a5bd2ull, 0x83fe4a388c670192ull,
    0xf159ee5bf64bc426ull, 0x07403ff3788d793dull, 0xe1baa4b3cd390de1ull,
    0x52c3759871b002dbull, 0x7aa7d13298b81d0bull, 0x737b5dd9080ca9d6ull,
    0xdd17b5427767df93ull, 0x74542dd65bc88cfbull, 0xf576b8ba194cc97cull,
    0x862684fbaea6a436ull, 0x0190717c35d979d7ull, 0x2dd42b86afa7ff37ull,
    0x23a66a145c73f1c2ull, 0x3c5b651078aa0c48ull, 0x3a3bded818b4d6faull,
    0x8abf336dfbe22380ull, 0x5923afaa7fd1afedull, 0x3418c046f0036f25ull,
    0x50b38ceeaba25f46ull, 0x5894dcbb1609e4abull, 0x30f07f4364d5fe2dull,
    0x13e2d3c20d6864f4ull, 0x5bdd0ceb2a647874ull, 0x279d57dfa7e188f5ull,
    0x95bc52fe94c5a614ull, 0xf5986d02cad37ca0ull, 0x4bb6e22b8cee74cfull,
    0x8d241cb55bb4c074ull, 0xa34f2a240af951e7ull, 0xaf08ba851ee2be00ull,
    0xcad74207f1e0becaull, 0x0d8f7963fff0acdfull, 0x4642de19e72429cdull,
    0x568f7ec09b63ba97ull, 0xd395f17b406c3343ull,
};

/// One drawn scheduler configuration + trace, fully determined by its
/// seed (the failure-reproduction handle).
struct Config {
    uint64_t seed = 0;
    compiler::Mode mode = compiler::Mode::kStatic;
    std::vector<runtime::Request> trace;
    runtime::ServerOptions opts;

    std::string
    describe() const
    {
        std::ostringstream out;
        out << "config seed " << seed << " mode "
            << compiler::mode_name(mode) << " n " << trace.size()
            << " chunk " << opts.prefill_chunk << " kv "
            << opts.kv_budget << " prefix " << opts.prefix_sharing
            << " slo " << opts.slo << " tenants " << opts.tenants
            << " locality " << opts.kv_locality;
        return out.str();
    }
};

class SchedPropertyTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    /// Draws the configuration for index @p i — every choice comes
    /// off one seeded mt19937_64, so a failing index reproduces from
    /// its printed seed alone.
    Config
    draw_config(int i) const
    {
        Config cfg;
        cfg.seed = 0xe1c5eedull + static_cast<uint64_t>(i);
        std::mt19937_64 rng(cfg.seed);
        cfg.mode = (rng() % 2 == 0) ? compiler::Mode::kStatic
                                    : compiler::Mode::kElkFull;

        runtime::ServerOptions& o = cfg.opts;
        o.max_batch = 4;
        o.max_prefill_batch = 1 + static_cast<int>(rng() % 2);
        o.max_prompt_len = kSeq;
        // This draw once picked a residency policy. It is still taken
        // and discarded so that every later draw, and with it every
        // config, stays what it was.
        static_cast<void>(rng());

        // KV budget: off, tight (segments spill), or roomy.
        const uint64_t per_seg =
            kSeq * testing::tiny_kv_bytes_per_token() / 64;
        switch (rng() % 3) {
        case 0: break;  // modeling off
        case 1: o.kv_budget = 2 * per_seg; break;
        case 2: o.kv_budget = 6 * per_seg; break;
        }
        if (o.kv_budget > 0) {
            o.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
            o.kv_locality = rng() % 2 == 0;
            o.prefix_sharing = rng() % 2 == 0;
        }

        // Chunked prefill: off or one of the power-of-two sizes.
        const int chunks[] = {0, 8, 32, 128};
        o.prefill_chunk = chunks[rng() % 4];

        // SLO shape: off, two plain tenants, or three weighted
        // tenants with a uniform deadline.
        const int slo_shape = static_cast<int>(rng() % 3);
        bool deadlines = false;
        if (slo_shape > 0) {
            o.slo = true;
            o.tenants = 1 + slo_shape;
            if (slo_shape == 2) {
                o.tenant_shares = {3.0, 2.0, 1.0};
                deadlines = true;
            }
        }

        // The trace: conversational (session + prefixes) when prefix
        // sharing drew on, a mixed-phase tagged trace otherwise.
        const int n = 3 + static_cast<int>(rng() % 10);
        const double rate = 1500.0 + 500.0 * (rng() % 8);
        const int decode_tokens = 1 + static_cast<int>(rng() % 4);
        if (o.prefix_sharing) {
            runtime::SessionTraceOptions topts;
            topts.sessions = n;
            topts.rate_per_s = rate;
            topts.mean_turns = 2.0;
            topts.decode_tokens = decode_tokens;
            topts.max_prompt_len = kSeq;
            topts.prompt_mean_len = 24.0;
            topts.prefix_population = 2;
            topts.prefix_mean_len = 16.0;
            cfg.trace = runtime::make_session_trace(topts, cfg.seed);
        } else {
            const double prefill_frac =
                o.kv_budget > 0 ? 1.0 : (rng() % 2 == 0 ? 0.7 : 1.0);
            const double high_frac = rng() % 2 == 0 ? 0.0 : 0.25;
            cfg.trace = runtime::make_request_trace(
                runtime::ArrivalTrace::poisson(n, rate, cfg.seed),
                decode_tokens, prefill_frac, high_frac, cfg.seed);
            runtime::tag_prompt_lengths(cfg.trace, kSeq, 32.0,
                                        cfg.seed);
        }
        if (o.tenants > 1) {
            runtime::tag_tenants(cfg.trace, o.tenants, cfg.seed);
        }
        if (deadlines) {
            runtime::tag_deadlines(cfg.trace, /*slo_s=*/5e-3);
        }
        return cfg;
    }

    /// Serves @p cfg through freshly built programs from @p dc / @p pc.
    static runtime::ServingReport
    serve(const Config& cfg, compiler::ServingCompiler& dc,
          compiler::ServingCompiler& pc)
    {
        runtime::Server s(dc.machine(), cfg.opts);
        return s.serve(
            cfg.trace, [&](int b, int len) { return pc.program(b, len); },
            [&](int b) { return dc.program(b); });
    }

    /// Conservation: each request completes exactly once, decode
    /// tokens match the trace sum, ingested + prefix-covered prompt
    /// tokens partition the prompt sum, tenant roll-ups partition both
    /// totals, and disabled features leave their counters at zero.
    static void
    expect_conserves(const Config& cfg, const runtime::ServingReport& rep)
    {
        ASSERT_EQ(rep.requests, static_cast<int>(cfg.trace.size()));
        int64_t decode_sum = 0;
        int64_t prompt_sum = 0;
        for (const auto& r : cfg.trace) {
            decode_sum += r.decode_tokens;
            if (r.phase == runtime::Phase::kPrefill) {
                prompt_sum += r.prompt_len > 0 ? r.prompt_len : kSeq;
            }
        }
        EXPECT_EQ(rep.tokens, decode_sum);
        EXPECT_EQ(rep.prompt_tokens + rep.prefix_hit_tokens, prompt_sum);
        if (cfg.opts.slo) {
            ASSERT_EQ(rep.tenant_shares.size(),
                      static_cast<size_t>(cfg.opts.tenants));
            int tenant_requests = 0;
            int64_t tenant_tokens = 0;
            double share_sum = 0.0;
            for (const auto& t : rep.tenant_shares) {
                tenant_requests += t.requests;
                tenant_tokens += t.tokens;
                share_sum += t.token_share;
            }
            EXPECT_EQ(tenant_requests, rep.requests);
            EXPECT_EQ(tenant_tokens, rep.tokens + rep.prompt_tokens);
            EXPECT_NEAR(share_sum, 1.0, 1e-9);
        } else {
            EXPECT_TRUE(rep.tenant_shares.empty());
        }
        // The KV ledger balances: the engine panics on any unmatched
        // alloc/pin/free, so a completed serve with a sane peak is the
        // balance check.
        if (cfg.opts.kv_budget > 0) {
            EXPECT_LE(rep.mean_kv_bytes,
                      static_cast<double>(rep.kv_bytes_peak) + 1.0);
        } else {
            EXPECT_EQ(rep.kv_bytes_peak, 0u);
            EXPECT_EQ(rep.kv_locality_skips, 0);
        }
        if (cfg.opts.prefill_chunk == 0) {
            EXPECT_EQ(rep.prefill_chunks, 0);
            EXPECT_EQ(rep.chunked_prompts, 0);
            EXPECT_EQ(rep.chunk_decode_interleaves, 0);
        }
    }

    compiler::PlanCache cache1_;  ///< --jobs 1 compilers.
    compiler::PlanCache cache4_;  ///< --jobs 4 compilers.
};

// The harness: every drawn config must (a) conserve its trace (see
// expect_conserves); (b) serve exactly the committed golden digest;
// (c) reproduce itself — serving the same trace twice through the same
// programs is bit-identical; (d) be compiler-parallelism-blind —
// programs built with --jobs 4 serve bit-identically to --jobs 1.
TEST_F(SchedPropertyTest, RandomConfigsConserveAndReproduce)
{
    for (int i = 0; i < kConfigs; ++i) {
        Config cfg = draw_config(i);
        SCOPED_TRACE(cfg.describe());

        auto dc1 = testing::serving_compiler(
            compiler::GraphKind::kDecode, cfg.mode, kSeq, &cache1_);
        auto pc1 = testing::serving_compiler(
            compiler::GraphKind::kPrefill, cfg.mode, kSeq, &cache1_);
        auto dc4 = testing::serving_compiler(
            compiler::GraphKind::kDecode, cfg.mode, kSeq, &cache4_, 4);
        auto pc4 = testing::serving_compiler(
            compiler::GraphKind::kPrefill, cfg.mode, kSeq, &cache4_, 4);
        auto rep = serve(cfg, dc1, pc1);
        const std::string bits = rep.serialize_bits();

        // (a) conservation.
        expect_conserves(cfg, rep);

        // (b) the golden corpus.
        util::Fnv1a digest;
        digest.mix(bits.data(), bits.size());
        EXPECT_EQ(digest.value(), kGoldenDigests[i])
            << "config " << i << " seed " << cfg.seed
            << " digest 0x" << digest.hex();

        // (c) serve-twice bit-identity.
        EXPECT_EQ(bits, serve(cfg, dc1, pc1).serialize_bits());

        // (d) --jobs 1 vs --jobs 4 bit-identity.
        EXPECT_EQ(bits, serve(cfg, dc4, pc4).serialize_bits());

        if (::testing::Test::HasFailure()) {
            FAIL() << "stopping at first failing " << cfg.describe();
        }
    }
}

// SLO + KV: the fairness walk skips the deficit-blocked tenant-1 prompts
// at the queue head (whose KV would fit) and reaches a tenant-0 prompt
// whose KV does not. The claim defers on it having taken nobody; that
// must fall back to decode work (or force-admit), never run an empty
// prefill program. An empty iteration changes no deficit and frees no
// KV, so the server used to repeat it forever, starving the waiting
// decode requests — the ctest TIMEOUT on this binary turns that hang
// into a failure.
TEST_F(SchedPropertyTest, SloKvDeferralNeverRunsEmptyPrefill)
{
    Config cfg;
    cfg.seed = 195936482;
    runtime::ServerOptions& o = cfg.opts;
    o.max_batch = 4;
    o.max_prefill_batch = 2;
    o.max_prompt_len = kSeq;
    o.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
    o.kv_budget = 2 * kSeq * testing::tiny_kv_bytes_per_token() / 64;
    o.slo = true;
    o.tenants = 2;
    o.tenant_shares = {4.0, 1.0};
    cfg.trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(35, 4000.0, cfg.seed),
        /*decode_tokens=*/3, /*prefill_frac=*/1.0, /*high_frac=*/0.0,
        cfg.seed);
    runtime::tag_prompt_lengths(cfg.trace, kSeq, 48.0, cfg.seed);
    runtime::tag_tenants(cfg.trace, 2, cfg.seed);
    runtime::tag_deadlines(cfg.trace, /*slo_s=*/5e-3);
    SCOPED_TRACE(cfg.describe());

    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, cfg.mode, kSeq, &cache1_, /*jobs=*/1);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, cfg.mode, kSeq, &cache1_, /*jobs=*/1);
    auto rep = serve(cfg, dc, pc);
    expect_conserves(cfg, rep);
    EXPECT_GT(rep.deferred_admissions, 0);
    // Every prefill iteration ingested at least one prompt, so there
    // are no more of them than prompts (no chunking here).
    EXPECT_LE(rep.prefill_iterations, rep.requests);
    EXPECT_EQ(rep.serialize_bits(), serve(cfg, dc, pc).serialize_bits());
}

// ---------------------------------------------------------------------------
// Backfill units

// tag_deadlines is pure arithmetic but still rejects a meaningless
// SLO: zero (or negative) deadlines would mark every request late at
// arrival.
TEST_F(SchedPropertyTest, TagDeadlinesRejectsNonPositiveSlo)
{
    std::vector<runtime::Request> trace(2);
    EXPECT_DEATH(runtime::tag_deadlines(trace, 0.0),
                 "slo_s must be positive");
    EXPECT_DEATH(runtime::tag_deadlines(trace, -1.0),
                 "slo_s must be positive");
}

// tag_tenants with tenants == 1 consumes no draws at all, so the
// result cannot depend on the seed: any two seeds leave the trace
// byte-for-byte untouched.
TEST_F(SchedPropertyTest, TagTenantsSingleTenantIsSeedIndependent)
{
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(16, 3000.0, 13), 2,
        /*prefill_frac=*/0.5, /*high_frac=*/0.25, 13);
    auto a = trace;
    auto b = trace;
    runtime::tag_tenants(a, 1, /*seed=*/1);
    runtime::tag_tenants(b, 1, /*seed=*/0xdeadbeef);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(a[i].tenant, 0);
        EXPECT_EQ(b[i].tenant, 0);
        EXPECT_EQ(a[i].tenant, trace[i].tenant);  // untouched
    }
}

// pick_bucket over the residual lengths chunk_plan produces: full
// chunks land exactly on their own bucket, the short residual drops
// to the smallest covering bucket, and an over-long need saturates at
// the largest rung.
TEST_F(SchedPropertyTest, PickBucketCoversResidualChunkLengths)
{
    const std::vector<int> ladder = {16, 32, 64, 128};
    for (int piece : runtime::chunk_plan(100, 32)) {
        // {32, 32, 32, 4}: full chunks exact, residual covered.
        EXPECT_EQ(runtime::pick_bucket(ladder, piece),
                  piece == 4 ? 16 : 32);
    }
    for (int piece : runtime::chunk_plan(129, 128)) {
        // {128, 1}.
        EXPECT_EQ(runtime::pick_bucket(ladder, piece),
                  piece == 1 ? 16 : 128);
    }
    EXPECT_EQ(runtime::pick_bucket(ladder, 200), 128);  // saturates
    EXPECT_EQ(runtime::pick_bucket({16, 32}, 100), 32);
}

}  // namespace
}  // namespace elk
