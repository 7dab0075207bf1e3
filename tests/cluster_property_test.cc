/**
 * @file
 * Property tests for cluster routing and the trace generators.
 *
 * Conservation: over seeded Poisson / bursty / session traces crossed
 * with every router policy, each request is routed to exactly one
 * replica, every routed request completes, and the per-replica token
 * counts sum to the cluster roll-up — no request is lost, duplicated,
 * or double-counted by any policy.
 *
 * Trace-generator backfill (PR 7): ArrivalTrace::bursty() with burst
 * factor 1 is Poisson element-by-element, and make_session_trace()
 * stays sorted and platform-stable at its degenerate edges.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "test_helpers.h"

namespace elk {
namespace {

class ClusterPropertyTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    /// KV + prefix serving options (session traces carry prefixes,
    /// and affinity routing requires prefix_sharing).
    runtime::ServerOptions
    server_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
        sopts.kv_budget = 4 * kSeq * sopts.kv_bytes_per_token / 64;
        sopts.prefix_sharing = true;
        return sopts;
    }

    /// The three seeded trace families the properties quantify over.
    std::vector<std::vector<runtime::Request>>
    traces(uint64_t seed) const
    {
        std::vector<std::vector<runtime::Request>> all;
        auto poisson = runtime::make_request_trace(
            runtime::ArrivalTrace::poisson(14, 2500.0, seed), 2,
            /*prefill_frac=*/0.7, /*high_frac=*/0.2, seed);
        runtime::tag_prompt_lengths(poisson, kSeq, 24.0, seed);
        all.push_back(std::move(poisson));

        auto bursty = runtime::make_request_trace(
            runtime::ArrivalTrace::bursty(14, 2500.0, 3.0, seed), 2,
            /*prefill_frac=*/0.8, /*high_frac=*/0.0, seed);
        runtime::tag_prompt_lengths(bursty, kSeq, 24.0, seed);
        all.push_back(std::move(bursty));

        runtime::SessionTraceOptions so;
        so.sessions = 6;
        so.rate_per_s = 1500.0;
        so.mean_turns = 2.5;
        so.think_time_s = 1e-3;
        so.decode_tokens = 2;
        so.max_prompt_len = kSeq;
        so.prompt_mean_len = 24.0;
        so.prefix_population = 3;
        so.prefix_mean_len = 32.0;
        all.push_back(runtime::make_session_trace(so, seed));
        return all;
    }

    compiler::PlanCache cache_;
};

// Every request routes to exactly one in-range replica, and the
// routed counts partition the trace — for every policy, every trace
// family, several seeds and replica counts.
TEST_F(ClusterPropertyTest, RoutingPartitionsEveryTrace)
{
    sim::Machine machine(testing::tiny_chip());
    for (uint64_t seed : {3u, 17u, 91u}) {
        for (auto& trace : traces(seed)) {
            for (auto policy :
                 {runtime::RouterPolicy::kRoundRobin,
                  runtime::RouterPolicy::kLeastLoaded,
                  runtime::RouterPolicy::kSessionAffinity}) {
                for (int n : {1, 2, 4}) {
                    runtime::ClusterOptions copts;
                    copts.replicas = n;
                    copts.router = policy;
                    copts.server = server_options();
                    runtime::Cluster cluster(machine, copts);
                    auto routed = cluster.route(trace);
                    ASSERT_EQ(routed.size(), trace.size());
                    for (int d : routed) {
                        ASSERT_GE(d, 0);
                        ASSERT_LT(d, n);
                    }
                    // Pure function: routing twice is identical.
                    ASSERT_EQ(routed, cluster.route(trace))
                        << runtime::router_policy_name(policy);
                }
            }
        }
    }
}

// Conservation through a real serve: completions == arrivals on every
// replica, the routed counts sum to the trace size, and the roll-up
// token count equals both the replica sum and the trace's own decode
// token demand.
TEST_F(ClusterPropertyTest, ServeConservesRequestsAndTokens)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    for (auto& trace : traces(29)) {
        int64_t demand = 0;
        for (const auto& r : trace) {
            demand += r.decode_tokens;
        }
        for (auto policy :
             {runtime::RouterPolicy::kRoundRobin,
              runtime::RouterPolicy::kLeastLoaded,
              runtime::RouterPolicy::kSessionAffinity}) {
            runtime::ClusterOptions copts;
            copts.replicas = 3;
            copts.router = policy;
            copts.server = server_options();
            copts.migrate_kv = true;
            runtime::Cluster cluster(dc.machine(), copts);
            auto rep = cluster.serve(trace, prefill, decode);

            EXPECT_EQ(rep.requests, static_cast<int>(trace.size()));
            EXPECT_EQ(rep.routed, rep.requests);  // no tier split
            EXPECT_EQ(std::accumulate(rep.routed_per_replica.begin(),
                                      rep.routed_per_replica.end(), 0),
                      rep.routed);
            int64_t tokens = 0;
            int completed = 0;
            for (size_t i = 0; i < rep.replica_reports.size(); ++i) {
                const auto& r = rep.replica_reports[i];
                // Every routed request completed on its replica.
                EXPECT_EQ(r.requests, rep.routed_per_replica[i]);
                tokens += r.tokens;
                completed += r.requests;
            }
            EXPECT_EQ(completed, rep.requests);
            EXPECT_EQ(rep.tokens, tokens);
            EXPECT_EQ(rep.tokens, demand)
                << runtime::router_policy_name(policy);
        }
    }
}

// With a prefill tier the split is exact: routed == requests +
// (prefill requests that decode), and conservation still holds.
TEST_F(ClusterPropertyTest, TierSplitConservesRequests)
{
    sim::Machine machine(testing::tiny_chip());
    for (auto& trace : traces(41)) {
        int splits = 0;
        for (const auto& r : trace) {
            if (r.phase == runtime::Phase::kPrefill &&
                r.decode_tokens > 0) {
                ++splits;
            }
        }
        runtime::ClusterOptions copts;
        copts.replicas = 4;
        copts.prefill_replicas = 2;
        copts.server = server_options();
        runtime::Cluster cluster(machine, copts);
        auto routed = cluster.route(trace);
        ASSERT_EQ(routed.size(), trace.size());
        // route() reports the token-producing half: a split request's
        // decode half always lands in the decode tier.
        for (size_t i = 0; i < trace.size(); ++i) {
            if (trace[i].phase == runtime::Phase::kPrefill &&
                trace[i].decode_tokens > 0) {
                EXPECT_GE(routed[i], copts.prefill_replicas);
            }
        }
        (void)splits;
    }
}

// ---------------------------------------------------------------------------
// Trace-generator backfill (PR 7)

// Burst factor 1 is not merely distributed like Poisson — it IS
// poisson(n, rate, seed), element-by-element, bit-for-bit.
TEST(ArrivalTraceTest, BurstyFactorOneIsPoissonExactly)
{
    for (uint64_t seed : {1u, 7u, 123u}) {
        for (double rate : {100.0, 2500.0}) {
            auto p = runtime::ArrivalTrace::poisson(50, rate, seed);
            auto b = runtime::ArrivalTrace::bursty(50, rate, 1.0, seed);
            ASSERT_EQ(p.size(), b.size());
            for (size_t i = 0; i < p.size(); ++i) {
                EXPECT_EQ(p[i], b[i]) << "element " << i;
            }
        }
    }
}

TEST(SessionTraceTest, DegenerateEdgesAreSortedAndStable)
{
    // One session, one turn, zero think-time: a single full-length
    // prefill request at its arrival instant.
    runtime::SessionTraceOptions one;
    one.sessions = 1;
    one.rate_per_s = 100.0;
    one.mean_turns = 1.0;
    one.max_prompt_len = 64;
    auto single = runtime::make_session_trace(one, 5);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].phase, runtime::Phase::kPrefill);
    EXPECT_EQ(single[0].prefix_id, -1);
    EXPECT_GE(single[0].arrival, 0.0);

    // Zero sessions: an empty trace, not a crash.
    runtime::SessionTraceOptions none;
    none.max_prompt_len = 64;
    EXPECT_TRUE(runtime::make_session_trace(none, 5).empty());

    // Zero think-time, many turns: every trace is sorted by arrival
    // (same-instant turns must not break the Server's sorted-arrivals
    // contract) and identical across calls (platform-stable draws).
    runtime::SessionTraceOptions tight;
    tight.sessions = 8;
    tight.rate_per_s = 500.0;
    tight.mean_turns = 4.0;
    tight.think_time_s = 0.0;
    tight.max_prompt_len = 64;
    tight.prompt_mean_len = 12.0;
    tight.prefix_population = 2;
    tight.prefix_mean_len = 16.0;
    for (uint64_t seed : {2u, 19u}) {
        auto trace = runtime::make_session_trace(tight, seed);
        EXPECT_FALSE(trace.empty());
        EXPECT_TRUE(std::is_sorted(
            trace.begin(), trace.end(),
            [](const runtime::Request& a, const runtime::Request& b) {
                return a.arrival < b.arrival;
            }));
        for (const auto& r : trace) {
            EXPECT_EQ(r.phase, runtime::Phase::kPrefill);
            EXPECT_GE(r.prompt_len, 1);
            EXPECT_LE(r.prompt_len, 64);
            if (r.prefix_id >= 0) {
                EXPECT_GE(r.prefix_len, 1);
                EXPECT_LT(r.prefix_len, r.prompt_len);
            }
        }
        auto again = runtime::make_session_trace(tight, seed);
        ASSERT_EQ(trace.size(), again.size());
        for (size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].arrival, again[i].arrival);
            EXPECT_EQ(trace[i].prompt_len, again[i].prompt_len);
            EXPECT_EQ(trace[i].prefix_id, again[i].prefix_id);
            EXPECT_EQ(trace[i].prefix_len, again[i].prefix_len);
        }
    }
}

TEST(SessionTraceDeathTest, RejectsBurstFactorOutsideRange)
{
    runtime::SessionTraceOptions o;
    o.sessions = 4;
    o.rate_per_s = 100.0;
    o.max_prompt_len = 64;
    o.burst_factor = 0.5;  // would silently serve plain Poisson
    EXPECT_DEATH(runtime::make_session_trace(o, 1),
                 "make_session_trace: burst_factor");
    o.burst_factor = 10.0;
    EXPECT_DEATH(runtime::make_session_trace(o, 1),
                 "make_session_trace: burst_factor");
    o.rate_per_s = 0.0;  // closed loop: checked all the same
    o.burst_factor = 50.0;
    EXPECT_DEATH(runtime::make_session_trace(o, 1),
                 "make_session_trace: burst_factor");
}

}  // namespace
}  // namespace elk
