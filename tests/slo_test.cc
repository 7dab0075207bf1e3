/**
 * @file
 * Multi-tenant SLO serving tests: the slo-off / slo-on single-tenant
 * bit-identity anchor across all five design modes, EDF claim order
 * and its deterministic request-id tie-break, fairness-share token
 * conservation, the bounded per-request deadline-preemption budget,
 * and death tests for tenant / deadline / share misconfiguration.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "test_helpers.h"

namespace elk {
namespace {

class SloServingTest : public ::testing::Test {
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

    /// @p n identical prefill-only requests (decode_tokens = 0, so a
    /// request completes when its serial prefill iteration does) all
    /// arriving at t = 0 — the EDF-order probe trace.
    std::vector<runtime::Request>
    serial_prefill_trace(int n) const
    {
        std::vector<runtime::Request> trace;
        for (int i = 0; i < n; ++i) {
            runtime::Request r;
            r.arrival = 0.0;
            r.phase = runtime::Phase::kPrefill;
            r.decode_tokens = 0;
            r.prompt_len = kSeq;
            trace.push_back(r);
        }
        return trace;
    }

    compiler::PlanCache cache_;
};

// ---------------------------------------------------------------------------
// The acceptance anchor: slo on over a single-tenant, no-deadline
// trace reproduces the slo-off scheduler bit-for-bit — across all
// five design modes, on single-phase mixed-priority traces: an
// all-prefill varlen one and a decode-only one. (A single phase keeps
// every wait queue id-sorted, where EDF with every deadline at +inf
// degenerates to exactly the FIFO claim order. Mixed-phase traces
// are not covered: slo off appends prefill graduates to the decode
// queues in completion order, slo on sorts them by id.)

TEST_F(SloServingTest, SloSingleTenantIsBitIdenticalAcrossModes)
{
    auto prefill_trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(10, 2500.0, 7), 3,
        /*prefill_frac=*/1.0, /*high_frac=*/0.25, 7);
    runtime::tag_prompt_lengths(prefill_trace, kSeq, 32.0, 7);
    auto decode_trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(16, 2500.0, 11), 3,
        /*prefill_frac=*/0.0, /*high_frac=*/0.25, 11);
    for (auto mode :
         {compiler::Mode::kBasic, compiler::Mode::kStatic,
          compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
          compiler::Mode::kIdeal}) {
        auto dc = testing::serving_compiler(
            compiler::GraphKind::kDecode, mode, kSeq, &cache_);
        auto pc = testing::serving_compiler(
            compiler::GraphKind::kPrefill, mode, kSeq, &cache_);
        auto prefill = [&](int b, int len) {
            return pc.program(b, len);
        };
        auto decode = [&](int b) { return dc.program(b); };
        runtime::ServerOptions slopts = plain_options();
        slopts.slo = true;  // tenants = 1, no shares, no deadlines

        for (const auto* trace : {&prefill_trace, &decode_trace}) {
            const char* what =
                trace == &prefill_trace ? "all-prefill" : "decode-only";
            runtime::Server off(dc.machine(), plain_options());
            auto off_rep = off.serve(*trace, prefill, decode);
            runtime::Server on(dc.machine(), slopts);
            auto on_rep = on.serve(*trace, prefill, decode);

            EXPECT_FALSE(off_rep.slo);
            ASSERT_TRUE(on_rep.slo);
            ASSERT_EQ(on_rep.tenants, 1);
            EXPECT_EQ(on_rep.tokens, off_rep.tokens);
            EXPECT_EQ(on_rep.makespan, off_rep.makespan);
            EXPECT_EQ(on_rep.iterations, off_rep.iterations);
            EXPECT_EQ(on_rep.preemptions, off_rep.preemptions);
            EXPECT_EQ(on_rep.mean_latency, off_rep.mean_latency);
            EXPECT_EQ(on_rep.deadline_requests, 0);
            EXPECT_EQ(on_rep.deadline_misses, 0);
            EXPECT_EQ(on_rep.deadline_preemptions, 0);
            ASSERT_EQ(on_rep.tenant_shares.size(), 1u);
            EXPECT_EQ(on_rep.tenant_shares[0].requests, off_rep.requests);
            EXPECT_DOUBLE_EQ(on_rep.tenant_shares[0].token_share, 1.0);
            EXPECT_EQ(on_rep.slo_attainment, 1.0);
            // SLO's own fields aside, the reports match byte for byte.
            auto gated = on_rep;
            gated.slo = false;
            gated.tenants = 0;
            gated.slo_attainment = 0.0;
            gated.fairness_windows = 0;
            gated.tenant_shares.clear();
            EXPECT_EQ(off_rep.serialize_bits(), gated.serialize_bits())
                << compiler::mode_name(mode) << " " << what;
        }
    }
}

// ---------------------------------------------------------------------------
// EDF claim order on serialized identical requests

// Two identical prefill-only requests arrive together and serve one
// at a time: the trace's completion *times* are fixed, only which
// request gets the earlier one depends on the claim order. A
// calibration pass (no deadlines — FIFO by id) measures the two
// completion times; then giving the *second* request a deadline equal
// to the earlier completion is only meetable if EDF reorders it to
// the front of the queue.
TEST_F(SloServingTest, EdfClaimsTightestDeadlineFirst)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    runtime::ServerOptions slopts = plain_options();
    slopts.max_prefill_batch = 1;
    slopts.slo = true;

    auto trace = serial_prefill_trace(2);
    runtime::Server calib(dc.machine(), slopts);
    auto base = calib.serve(trace, prefill, decode);
    // Reconstructing c_first from the mean rounds by an ulp, so the
    // deadlines below carry a nanosecond of slack — far below the
    // iteration-scale gap to c_second.
    const double c_first =
        2.0 * base.mean_latency - base.max_latency + 1e-9;
    const double c_second = base.max_latency;
    ASSERT_LT(c_first + 1e-6, c_second);

    // FIFO serves id 0 first, so id 1 would finish at c_second and
    // miss; EDF claims the deadline carrier first and it finishes at
    // exactly c_first (the identical requests swap places on the
    // same timeline).
    trace[1].deadline_s = c_first;
    runtime::Server edf(dc.machine(), slopts);
    auto rep = edf.serve(trace, prefill, decode);
    EXPECT_EQ(rep.deadline_requests, 1);
    EXPECT_EQ(rep.deadline_misses, 0);
    EXPECT_DOUBLE_EQ(rep.slo_attainment, 1.0);
    EXPECT_DOUBLE_EQ(rep.max_lateness, 0.0);
    EXPECT_EQ(rep.makespan, base.makespan);
}

// Equal deadlines tie-break on request id: with both requests tagged
// at the earlier completion time, only the lower id can meet it. The
// per-tenant roll-up (one tenant per request) pins down which.
TEST_F(SloServingTest, EdfTiesBreakOnRequestId)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    runtime::ServerOptions slopts = plain_options();
    slopts.max_prefill_batch = 1;
    slopts.slo = true;
    slopts.tenants = 2;

    auto trace = serial_prefill_trace(2);
    trace[0].tenant = 0;
    trace[1].tenant = 1;
    runtime::Server calib(dc.machine(), slopts);
    auto base = calib.serve(trace, prefill, decode);
    const double c_first =
        2.0 * base.mean_latency - base.max_latency + 1e-9;

    trace[0].deadline_s = c_first;
    trace[1].deadline_s = c_first;
    runtime::Server tied(dc.machine(), slopts);
    auto rep = tied.serve(trace, prefill, decode);
    EXPECT_EQ(rep.deadline_requests, 2);
    EXPECT_EQ(rep.deadline_misses, 1);
    ASSERT_EQ(rep.tenant_shares.size(), 2u);
    EXPECT_EQ(rep.tenant_shares[0].deadline_misses, 0);  // id 0 first
    EXPECT_EQ(rep.tenant_shares[1].deadline_misses, 1);
}

// ---------------------------------------------------------------------------
// Fairness shares

// The per-tenant roll-up conserves the serve's work exactly: charged
// tokens (prompt ingestion + decode) partition across tenants, the
// token shares partition the total, and every request lands in
// exactly one tenant row.
TEST_F(SloServingTest, FairnessSharesConserveWorkTokens)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kStatic, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kStatic, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(24, 4000.0, 11), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.1, 11);
    runtime::tag_prompt_lengths(trace, kSeq, 32.0, 11);
    runtime::tag_tenants(trace, /*tenants=*/3, /*seed=*/11);

    runtime::ServerOptions slopts = plain_options();
    slopts.slo = true;
    slopts.tenants = 3;
    slopts.tenant_shares = {4.0, 2.0, 1.0};
    runtime::Server server(dc.machine(), slopts);
    auto rep = server.serve(trace, prefill, decode);

    ASSERT_EQ(rep.tenant_shares.size(), 3u);
    int64_t tokens = 0;
    int requests = 0;
    double share_sum = 0.0;
    for (const auto& t : rep.tenant_shares) {
        EXPECT_GT(t.requests, 0);  // the seeded tagging hits all 3
        tokens += t.tokens;
        requests += t.requests;
        share_sum += t.token_share;
    }
    EXPECT_EQ(tokens, rep.tokens + rep.prompt_tokens);
    EXPECT_EQ(requests, rep.requests);
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
    // Contention across three tenants must have opened windows.
    EXPECT_GT(rep.fairness_windows, 0);
}

// tag_tenants with tenants == 1 is an exact no-op (no draws, tenant
// stays 0); with N > 1 every id lands in [0, N).
TEST_F(SloServingTest, TagTenantsIsSeededAndRangeBounded)
{
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(32, 4000.0, 3), 2,
        /*prefill_frac=*/0.5, /*high_frac=*/0.0, 3);
    auto copy = trace;
    runtime::tag_tenants(copy, 1, /*seed=*/3);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(copy[i].tenant, 0);
    }
    runtime::tag_tenants(trace, 4, /*seed=*/3);
    auto again = copy;
    runtime::tag_tenants(again, 4, /*seed=*/3);
    bool multi = false;
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_GE(trace[i].tenant, 0);
        EXPECT_LT(trace[i].tenant, 4);
        EXPECT_EQ(trace[i].tenant, again[i].tenant);  // seed-stable
        multi |= trace[i].tenant != trace[0].tenant;
    }
    EXPECT_TRUE(multi);
}

// ---------------------------------------------------------------------------
// Deadline preemption budget

// A tight uniform SLO over a bursty all-prefill trace triggers
// deadline preemptions; preempt_budget = 0 disables them entirely,
// and a budget of B bounds them by B per request. The preemption
// machinery reuses the park/resume frames, so the deadline count is
// always a subset of the total.
TEST_F(SloServingTest, PreemptBudgetBoundsDeadlinePreemptions)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    const int n = 16;
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(n, 3000.0, 5), 2,
        /*prefill_frac=*/1.0, /*high_frac=*/0.0, 5);
    runtime::tag_prompt_lengths(trace, kSeq, 48.0, 5);
    runtime::tag_tenants(trace, 2, /*seed=*/5);
    runtime::tag_deadlines(trace, /*slo_s=*/1e-4);

    auto serve_with_budget = [&](int budget) {
        runtime::ServerOptions slopts = plain_options();
        slopts.max_prefill_batch = 1;
        slopts.slo = true;
        slopts.tenants = 2;
        slopts.preempt_budget = budget;
        runtime::Server server(dc.machine(), slopts);
        return server.serve(trace, prefill, decode);
    };

    auto off = serve_with_budget(0);
    EXPECT_EQ(off.deadline_preemptions, 0);

    auto on = serve_with_budget(2);
    EXPECT_GT(on.deadline_preemptions, 0);
    EXPECT_LE(on.deadline_preemptions, 2 * n);
    EXPECT_LE(on.deadline_preemptions, on.preemptions);
    // Every request still completes despite the parked iterations.
    EXPECT_EQ(on.requests, n);
    EXPECT_EQ(on.tokens, off.tokens);
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests

using SloDeathTest = SloServingTest;

TEST_F(SloDeathTest, RejectsTaggedRequestsWithoutSlo)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kBasic, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kBasic, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    auto tenant_tagged = serial_prefill_trace(1);
    tenant_tagged[0].tenant = 1;
    runtime::Server s1(dc.machine(), plain_options());
    EXPECT_DEATH(s1.serve(tenant_tagged, prefill, decode),
                 "need ServerOptions::slo");

    auto deadline_tagged = serial_prefill_trace(1);
    deadline_tagged[0].deadline_s = 1.0;
    runtime::Server s2(dc.machine(), plain_options());
    EXPECT_DEATH(s2.serve(deadline_tagged, prefill, decode),
                 "need ServerOptions::slo");
}

TEST_F(SloDeathTest, RejectsBadTenantAndDeadlineTags)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kBasic, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kBasic, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };

    runtime::ServerOptions slopts = plain_options();
    slopts.slo = true;
    slopts.tenants = 2;

    auto out_of_range = serial_prefill_trace(1);
    out_of_range[0].tenant = 2;
    runtime::Server s1(dc.machine(), slopts);
    EXPECT_DEATH(s1.serve(out_of_range, prefill, decode),
                 "request tenant must be in");

    auto before_arrival = serial_prefill_trace(1);
    before_arrival[0].arrival = 2.0;
    before_arrival[0].deadline_s = 1.0;
    runtime::Server s2(dc.machine(), slopts);
    EXPECT_DEATH(s2.serve(before_arrival, prefill, decode),
                 "must not precede");
}

TEST_F(SloDeathTest, RejectsBadOptionCombinations)
{
    sim::Machine machine(testing::tiny_chip());

    runtime::ServerOptions no_slo = plain_options();
    no_slo.tenants = 2;
    EXPECT_DEATH(runtime::Server(machine, no_slo),
                 "multi-tenant shares need");

    runtime::ServerOptions mismatched = plain_options();
    mismatched.slo = true;
    mismatched.tenants = 2;
    mismatched.tenant_shares = {1.0, 2.0, 3.0};
    EXPECT_DEATH(runtime::Server(machine, mismatched),
                 "one weight per tenant");

    runtime::ServerOptions negative_share = plain_options();
    negative_share.slo = true;
    negative_share.tenants = 2;
    negative_share.tenant_shares = {1.0, -1.0};
    EXPECT_DEATH(runtime::Server(machine, negative_share),
                 "share weights must be");

    runtime::ServerOptions negative_budget = plain_options();
    negative_budget.slo = true;
    negative_budget.preempt_budget = -1;
    EXPECT_DEATH(runtime::Server(machine, negative_budget),
                 "preempt_budget must be");

    std::vector<runtime::Request> empty;
    EXPECT_DEATH(runtime::tag_tenants(empty, 0, 7), "tenants must be");
}

}  // namespace
}  // namespace elk
