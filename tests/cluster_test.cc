/**
 * @file
 * Cluster-scale serving tests: the hw::Interconnect cost model (ring /
 * full-mesh hop math, transfer pricing), the deterministic router
 * policies on crafted arrival patterns, cross-chip KV migration with
 * priced interconnect stalls, the disaggregated prefill-tier /
 * decode-tier split, the 1-replica round-robin bit-identity anchor
 * across all five design modes, the SLO roll-up against its replica
 * reports, and death tests for cluster misconfiguration.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "hw/interconnect.h"
#include "runtime/cluster.h"
#include "runtime/server.h"
#include "test_helpers.h"
#include "util/bits.h"

namespace elk {
namespace {

// ---------------------------------------------------------------------------
// hw::Interconnect: the chip-to-chip cost model

TEST(InterconnectTest, RingHopsAreMinCyclicDistance)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kRing;
    cfg.link_bw = 100e9;
    hw::Interconnect ring(cfg, 6);
    EXPECT_EQ(ring.hops(0, 0), 0);
    EXPECT_EQ(ring.hops(0, 1), 1);
    EXPECT_EQ(ring.hops(0, 3), 3);  // either way around is 3
    EXPECT_EQ(ring.hops(0, 4), 2);  // the short way wraps
    EXPECT_EQ(ring.hops(5, 0), 1);
    EXPECT_EQ(ring.hops(1, 5), 2);
}

TEST(InterconnectTest, FullMeshIsOneHop)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kFullMesh;
    cfg.link_bw = 100e9;
    hw::Interconnect mesh(cfg, 8);
    for (int d = 1; d < 8; ++d) {
        EXPECT_EQ(mesh.hops(0, d), 1);
    }
    EXPECT_EQ(mesh.hops(3, 3), 0);
}

TEST(InterconnectTest, TransferPricesLatencyPlusBandwidth)
{
    hw::InterconnectConfig cfg;
    cfg.kind = hw::InterconnectKind::kRing;
    cfg.link_bw = 1e9;
    cfg.hop_latency_s = 1e-6;
    hw::Interconnect ring(cfg, 4);
    // 2 hops (0 -> 2): 2 us of latency + 1 GB at 1 GB/s.
    EXPECT_DOUBLE_EQ(ring.transfer_seconds(0, 2, 1000000000ull),
                     2e-6 + 1.0);
    // Local transfers are free regardless of size.
    EXPECT_DOUBLE_EQ(ring.transfer_seconds(1, 1, 1u << 30), 0.0);
    // Link traffic multiplies by the hop count.
    EXPECT_EQ(ring.link_bytes(0, 2, 4096u), 8192u);
    EXPECT_EQ(ring.link_bytes(0, 0, 4096u), 0u);
}

TEST(InterconnectDeathTest, RejectsBadConfig)
{
    hw::InterconnectConfig cfg;
    cfg.link_bw = 100e9;
    EXPECT_DEATH(hw::Interconnect(cfg, 0), "at least one chip");
    hw::InterconnectConfig unresolved;
    unresolved.link_bw = 0.0;
    EXPECT_DEATH(hw::Interconnect(unresolved, 2), "resolved");
    hw::InterconnectConfig negative;
    negative.link_bw = 100e9;
    negative.hop_latency_s = -1.0;
    EXPECT_DEATH(hw::Interconnect(negative, 2), "hop latency");
    hw::Interconnect ok(cfg, 2);
    EXPECT_DEATH(ok.hops(0, 2), "out of range");
}

// ---------------------------------------------------------------------------
// The serving fixture

class ClusterServingTest : public ::testing::Test {
  protected:
    static constexpr int kSeq = 128;

    /// ServerOptions with KV modeling + prefix sharing on and room
    /// for a few full-length segments per core.
    runtime::ServerOptions
    prefix_options() const
    {
        runtime::ServerOptions sopts;
        sopts.max_batch = 4;
        sopts.max_prefill_batch = 2;
        sopts.max_prompt_len = kSeq;
        sopts.kv_bytes_per_token = testing::tiny_kv_bytes_per_token();
        sopts.kv_budget = 4 * kSeq * testing::tiny_kv_bytes_per_token() / 64;
        sopts.prefix_sharing = true;
        return sopts;
    }

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

    /// A trace of @p n prompts all carrying prefix id @p pid.
    std::vector<runtime::Request>
    shared_prefix_trace(int n, int pid, int prefix_len, int prompt_len,
                        int decode_tokens) const
    {
        std::vector<runtime::Request> trace;
        for (int i = 0; i < n; ++i) {
            runtime::Request r;
            r.arrival = i * 1e-4;
            r.phase = runtime::Phase::kPrefill;
            r.decode_tokens = decode_tokens;
            r.prompt_len = prompt_len;
            r.prefix_id = pid;
            r.prefix_len = prefix_len;
            trace.push_back(r);
        }
        return trace;
    }

    /// SLO serving options: 3 tenants at shares 4:2:1.
    runtime::ServerOptions
    slo_options() const
    {
        runtime::ServerOptions sopts = plain_options();
        sopts.slo = true;
        sopts.tenants = 3;
        sopts.tenant_shares = {4.0, 2.0, 1.0};
        return sopts;
    }

    /// A mixed varlen trace across 3 tenants whose deadlines are tight
    /// enough that some are missed.
    std::vector<runtime::Request>
    slo_trace() const
    {
        auto trace = runtime::make_request_trace(
            runtime::ArrivalTrace::poisson(18, 4000.0, 13), 3,
            /*prefill_frac=*/0.7, /*high_frac=*/0.1, 13);
        runtime::tag_prompt_lengths(trace, kSeq, 32.0, 13);
        runtime::tag_tenants(trace, /*tenants=*/3, /*seed=*/13);
        runtime::tag_deadlines(trace, 2e-3);
        return trace;
    }

    compiler::PlanCache cache_;
};

/// The "  tenant N ..." lines of a report summary, in order.
std::vector<std::string>
tenant_lines(const std::string& summary)
{
    std::vector<std::string> lines;
    std::istringstream in(summary);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("  tenant ", 0) == 0) {
            lines.push_back(line);
        }
    }
    return lines;
}

// The acceptance anchor: a 1-replica round-robin cluster routes the
// trace to replica 0 unchanged, so its replica report reproduces the
// single-chip Server bit-for-bit — across all five design modes, on
// a mixed varlen trace.
TEST_F(ClusterServingTest, OneReplicaRoundRobinIsBitIdenticalAcrossModes)
{
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(10, 2500.0, 7), 3,
        /*prefill_frac=*/0.7, /*high_frac=*/0.25, 7);
    runtime::tag_prompt_lengths(mixed, kSeq, 32.0, 7);
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

        runtime::Server server(dc.machine(), plain_options());
        auto single = server.serve(mixed, prefill, decode);

        runtime::ClusterOptions copts;
        copts.replicas = 1;
        copts.router = runtime::RouterPolicy::kRoundRobin;
        copts.server = plain_options();
        runtime::Cluster cluster(dc.machine(), copts);
        auto clustered = cluster.serve(mixed, prefill, decode);

        ASSERT_EQ(clustered.replica_reports.size(), 1u);
        EXPECT_EQ(single.serialize_bits(),
                  clustered.replica_reports[0].serialize_bits())
            << compiler::mode_name(mode);
        EXPECT_EQ(clustered.tokens, single.tokens);
        EXPECT_EQ(clustered.makespan, single.makespan);
        EXPECT_EQ(clustered.util_skew, 0.0);
        EXPECT_EQ(clustered.kv_migrations, 0);
    }
}

// ---------------------------------------------------------------------------
// Router policies on crafted patterns (route() is a pure function)

TEST_F(ClusterServingTest, RoundRobinCyclesArrivalOrder)
{
    sim::Machine machine(testing::tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 3;
    copts.server = plain_options();
    runtime::Cluster cluster(machine, copts);
    auto trace = runtime::prefill_requests(
        runtime::ArrivalTrace::closed_loop(7), 2);
    EXPECT_EQ(cluster.route(trace),
              (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
}

TEST_F(ClusterServingTest, LeastLoadedBalancesAssignedWork)
{
    sim::Machine machine(testing::tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = plain_options();
    runtime::Cluster cluster(machine, copts);

    // One huge request then a run of small ones: round-robin would
    // alternate, but least-loaded parks the small ones on replica 1
    // until its cumulative tokens pass the giant on replica 0.
    std::vector<runtime::Request> trace;
    for (int i = 0; i < 5; ++i) {
        runtime::Request r;
        r.arrival = i * 1e-4;
        r.phase = runtime::Phase::kDecode;
        r.decode_tokens = i == 0 ? 100 : 40;
        trace.push_back(r);
    }
    // Replica 1 absorbs smalls until its cumulative 120 passes the
    // giant's 100 — the last request swings back to replica 0.
    EXPECT_EQ(cluster.route(trace),
              (std::vector<int>{0, 1, 1, 1, 0}));
}

TEST_F(ClusterServingTest, SessionAffinityPinsPrefixesToHomes)
{
    sim::Machine machine(testing::tiny_chip());
    runtime::ClusterOptions copts;
    copts.replicas = 4;
    copts.router = runtime::RouterPolicy::kSessionAffinity;
    copts.server = prefix_options();
    runtime::Cluster cluster(machine, copts);

    // Interleaved carriers of three prefixes plus untagged prompts.
    std::vector<runtime::Request> trace;
    const int pids[] = {0, 1, 2, 0, 1, 2, -1, -1, 0, 2};
    for (size_t i = 0; i < sizeof(pids) / sizeof(pids[0]); ++i) {
        runtime::Request r;
        r.arrival = static_cast<double>(i) * 1e-4;
        r.phase = runtime::Phase::kPrefill;
        r.prompt_len = 64;
        if (pids[i] >= 0) {
            r.prefix_id = pids[i];
            r.prefix_len = 32;
        }
        trace.push_back(r);
    }
    auto routed = cluster.route(trace);
    // Every carrier of one prefix lands on one replica.
    std::vector<int> prefix_home(3, -1);
    int untagged = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].prefix_id >= 0) {
            int& h = prefix_home[trace[i].prefix_id];
            if (h < 0) {
                h = routed[i];
            }
            EXPECT_EQ(routed[i], h) << "carrier " << i;
        } else {
            // Untagged prompts round-robin: first fallback to 0,
            // second to 1.
            EXPECT_EQ(routed[i], untagged++);
        }
    }
}

// ---------------------------------------------------------------------------
// KV migration over the interconnect

// With carriers of one prefix scattered round-robin over two chips,
// migrate_kv imports the segment once onto the second chip — priced
// at exactly the fabric's transfer time — and both chips serve every
// later carrier as a cache hit. Without migration the second chip
// re-prefills (a local miss): one fewer hit, no interconnect traffic.
TEST_F(ClusterServingTest, MigrationImportsPrefixAtPricedStall)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto prefill = [&](int b, int len) { return pc.program(b, len); };
    auto decode = [&](int b) { return dc.program(b); };
    auto trace = shared_prefix_trace(8, /*pid=*/0, /*prefix_len=*/96,
                                     /*prompt_len=*/112,
                                     /*decode_tokens=*/2);

    auto serve = [&](bool migrate) {
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.router = runtime::RouterPolicy::kRoundRobin;
        copts.server = prefix_options();
        copts.migrate_kv = migrate;
        copts.interconnect.kind = hw::InterconnectKind::kRing;
        runtime::Cluster cluster(dc.machine(), copts);
        return cluster.serve(trace, prefill, decode);
    };

    auto migrated = serve(true);
    auto local = serve(false);

    // Exactly one import: the round-robin scatter lands carrier 1 on
    // replica 1, which lacks the prefix replica 0 homed.
    EXPECT_EQ(migrated.kv_migrations, 1);
    EXPECT_EQ(migrated.kv_migrated_tokens, 96);
    const uint64_t bytes = 96ull * testing::tiny_kv_bytes_per_token();
    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.server = prefix_options();
    runtime::Cluster pricing(dc.machine(), copts);
    EXPECT_DOUBLE_EQ(
        migrated.kv_migration_stall,
        pricing.fabric().transfer_seconds(0, 1, bytes));
    EXPECT_EQ(migrated.interconnect_bytes,
              static_cast<int64_t>(bytes));

    // The import turns replica 1's would-be misses into hits: 7 of 8
    // carriers hit with migration (all but the seeding first), 6
    // without (each chip pays its own seeding miss).
    auto hits = [](const runtime::ClusterReport& r) {
        int64_t h = 0;
        for (const auto& rep : r.replica_reports) {
            h += rep.prefix_hits;
        }
        return h;
    };
    EXPECT_EQ(hits(migrated), 7);
    EXPECT_EQ(hits(local), 6);
    EXPECT_EQ(local.kv_migrations, 0);
    EXPECT_EQ(local.interconnect_bytes, 0);
    EXPECT_EQ(local.kv_migration_stall, 0.0);
}

// The headline scenario: a dedicated prefill chip feeds a decode chip,
// KV flowing over the wire. The prefill replica ingests every prompt
// and produces zero tokens; the decode replica produces every token
// and pays one migration per request.
TEST_F(ClusterServingTest, PrefillTierFeedsDecodeTierOverTheWire)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto trace = shared_prefix_trace(6, /*pid=*/0, /*prefix_len=*/32,
                                     /*prompt_len=*/64,
                                     /*decode_tokens=*/3);

    runtime::ClusterOptions copts;
    copts.replicas = 2;
    copts.prefill_replicas = 1;
    copts.server = prefix_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        trace, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    ASSERT_EQ(rep.replica_reports.size(), 2u);
    const auto& pre = rep.replica_reports[0];
    const auto& dec = rep.replica_reports[1];
    // Every original request routed twice: once per tier.
    EXPECT_EQ(rep.requests, 6);
    EXPECT_EQ(rep.routed, 12);
    // The prefill chip ingests prompts, decodes nothing, frees its KV.
    EXPECT_EQ(pre.tokens, 0);
    EXPECT_GT(pre.prefill_iterations, 0);
    EXPECT_EQ(pre.decode_iterations, 0);
    // The decode chip produces all tokens, each request's KV arriving
    // as one interconnect migration of the full prompt.
    EXPECT_EQ(dec.tokens, 6 * 3);
    EXPECT_EQ(dec.prefill_iterations, 0);
    EXPECT_EQ(dec.kv_migrations, 6);
    EXPECT_EQ(dec.kv_migrated_tokens, 6 * 64);
    EXPECT_GT(dec.kv_migration_stall, 0.0);
    EXPECT_EQ(rep.tokens, 18);
    EXPECT_EQ(rep.interconnect_bytes,
              static_cast<int64_t>(6 * 64 *
                                   testing::tiny_kv_bytes_per_token()));
}

// A prefill-only request (decode_tokens == 0) completes at prompt
// ingestion on the plain single-chip Server too: it never joins the
// decode class and its KV frees immediately.
TEST_F(ClusterServingTest, PrefillOnlyRequestsCompleteAtIngestion)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    std::vector<runtime::Request> trace;
    for (int i = 0; i < 4; ++i) {
        runtime::Request r;
        r.arrival = i * 1e-4;
        r.phase = runtime::Phase::kPrefill;
        r.decode_tokens = 0;
        r.prompt_len = 64;
        trace.push_back(r);
    }
    runtime::Server server(dc.machine(), prefix_options());
    auto rep = server.serve(
        trace, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.requests, 4);
    EXPECT_EQ(rep.tokens, 0);
    EXPECT_EQ(rep.decode_iterations, 0);
    EXPECT_GT(rep.prefill_iterations, 0);
    EXPECT_GT(rep.mean_ttft, 0.0);
    // A prefill-only request's latency IS its TTFT: completion at
    // prompt ingestion.
    EXPECT_DOUBLE_EQ(rep.mean_latency, rep.mean_ttft);
}

// Cluster roll-up consistency on a real serve: tokens, migration and
// engine replay counters sum across replicas, the serialization is
// stable, and the summary renders.
TEST_F(ClusterServingTest, RollUpSumsReplicaReports)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    auto mixed = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(12, 2000.0, 11), 2,
        /*prefill_frac=*/0.6, /*high_frac=*/0.0, 11);
    runtime::tag_prompt_lengths(mixed, kSeq, 24.0, 11);

    runtime::ClusterOptions copts;
    copts.replicas = 3;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = plain_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        mixed, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    int64_t tokens = 0;
    double makespan = 0.0;
    int routed = 0;
    int64_t replays = 0;
    for (const auto& r : rep.replica_reports) {
        tokens += r.tokens;
        makespan = std::max(makespan, r.makespan);
        routed += r.requests;
        replays += r.engine_replays;
    }
    EXPECT_EQ(rep.tokens, tokens);
    EXPECT_EQ(rep.engine_replays, replays);
    EXPECT_EQ(rep.makespan, makespan);
    EXPECT_EQ(rep.routed, routed);
    EXPECT_EQ(rep.requests, 12);
    EXPECT_EQ(std::accumulate(rep.routed_per_replica.begin(),
                              rep.routed_per_replica.end(), 0),
              rep.routed);
    // Serving the same trace again is bit-identical (pure routing +
    // deterministic simulation).
    auto again = cluster.serve(
        mixed, [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });
    EXPECT_EQ(rep.serialize_bits(), again.serialize_bits());
    EXPECT_FALSE(rep.summary().empty());
}

// A 1-replica SLO cluster's roll-up is its one replica's SLO block:
// same tenant shares, deadline totals, attainment, lateness and
// deadline preemptions, and the same tenant summary lines.
TEST_F(ClusterServingTest, OneReplicaSloRollUpMatchesReplica)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    runtime::ClusterOptions copts;
    copts.replicas = 1;
    copts.server = slo_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        slo_trace(), [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    ASSERT_EQ(rep.replica_reports.size(), 1u);
    const runtime::ServingReport& r = rep.replica_reports[0];
    ASSERT_TRUE(rep.slo);
    ASSERT_EQ(rep.tenant_shares.size(), 3u);
    ASSERT_EQ(r.tenant_shares.size(), 3u);
    for (size_t t = 0; t < r.tenant_shares.size(); ++t) {
        const auto& c = rep.tenant_shares[t];
        const auto& s = r.tenant_shares[t];
        EXPECT_EQ(c.tenant, s.tenant);
        EXPECT_EQ(c.requests, s.requests);
        EXPECT_EQ(c.tokens, s.tokens);
        EXPECT_EQ(c.token_share, s.token_share);
        EXPECT_EQ(c.deadline_requests, s.deadline_requests);
        EXPECT_EQ(c.deadline_misses, s.deadline_misses);
        EXPECT_EQ(c.attainment, s.attainment);
    }
    EXPECT_EQ(rep.deadline_requests, r.deadline_requests);
    EXPECT_EQ(rep.deadline_misses, r.deadline_misses);
    EXPECT_EQ(rep.slo_attainment, r.slo_attainment);
    EXPECT_EQ(rep.worst_p99_lateness, r.p99_lateness);
    EXPECT_EQ(rep.deadline_preemptions, r.deadline_preemptions);
    // The trace exercises the roll-up: deadlines both met and missed.
    EXPECT_GT(rep.deadline_misses, 0);
    EXPECT_LT(rep.deadline_misses, rep.deadline_requests);
    const auto lines = tenant_lines(rep.summary());
    EXPECT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines, tenant_lines(r.summary()));
}

// A 3-replica SLO cluster re-aggregates per-tenant counts as sums over
// its replicas, and its serialization is pinned to a committed digest.
TEST_F(ClusterServingTest, SloRollUpSumsReplicaTenants)
{
    auto dc = testing::serving_compiler(
        compiler::GraphKind::kDecode, compiler::Mode::kElkFull, kSeq, &cache_);
    auto pc = testing::serving_compiler(
        compiler::GraphKind::kPrefill, compiler::Mode::kElkFull, kSeq, &cache_);
    runtime::ClusterOptions copts;
    copts.replicas = 3;
    copts.router = runtime::RouterPolicy::kLeastLoaded;
    copts.server = slo_options();
    runtime::Cluster cluster(dc.machine(), copts);
    auto rep = cluster.serve(
        slo_trace(), [&](int b, int len) { return pc.program(b, len); },
        [&](int b) { return dc.program(b); });

    ASSERT_EQ(rep.tenant_shares.size(), 3u);
    std::vector<runtime::ServingReport::TenantShare> sum(3);
    int deadline_requests = 0;
    int deadline_misses = 0;
    int deadline_preemptions = 0;
    double worst_p99 = 0.0;
    for (const auto& r : rep.replica_reports) {
        ASSERT_EQ(r.tenant_shares.size(), 3u);
        for (const auto& s : r.tenant_shares) {
            sum[s.tenant].requests += s.requests;
            sum[s.tenant].tokens += s.tokens;
            sum[s.tenant].deadline_requests += s.deadline_requests;
            sum[s.tenant].deadline_misses += s.deadline_misses;
        }
        deadline_requests += r.deadline_requests;
        deadline_misses += r.deadline_misses;
        deadline_preemptions += r.deadline_preemptions;
        worst_p99 = std::max(worst_p99, r.p99_lateness);
    }
    for (int t = 0; t < 3; ++t) {
        const auto& c = rep.tenant_shares[t];
        EXPECT_EQ(c.tenant, t);
        EXPECT_EQ(c.requests, sum[t].requests);
        EXPECT_EQ(c.tokens, sum[t].tokens);
        EXPECT_EQ(c.deadline_requests, sum[t].deadline_requests);
        EXPECT_EQ(c.deadline_misses, sum[t].deadline_misses);
    }
    EXPECT_EQ(rep.deadline_requests, deadline_requests);
    EXPECT_EQ(rep.deadline_misses, deadline_misses);
    EXPECT_EQ(rep.deadline_preemptions, deadline_preemptions);
    EXPECT_EQ(rep.worst_p99_lateness, worst_p99);

    const std::string bits = rep.serialize_bits();
    util::Fnv1a digest;
    digest.mix(bits.data(), bits.size());
    EXPECT_EQ(digest.value(), 0x05f0bad1c654cdd0ull)
        << "digest 0x" << digest.hex();
}

// Replicas serve in parallel; this pins them to an explicit serial
// reference. Every replica report of an 8-replica KV + prefix cluster
// equals a standalone Server serve of that replica's routed sub-trace.
// The sources are deliberately not thread-safe — they tally calls and
// first touches in plain containers, as a timing wrapper would — so
// they only come out right if the cluster calls them one at a time.
// The first serve runs cold, compiling buckets from replica threads
// on a second pool.
TEST_F(ClusterServingTest, ParallelReplicasMatchSerialReference)
{
    constexpr int kReplicas = 8;
    auto dc = testing::serving_compiler(compiler::GraphKind::kDecode,
                                        compiler::Mode::kElkFull, kSeq,
                                        &cache_, /*jobs=*/2);
    auto pc = testing::serving_compiler(compiler::GraphKind::kPrefill,
                                        compiler::Mode::kElkFull, kSeq,
                                        &cache_, /*jobs=*/2);
    runtime::SessionTraceOptions so;
    so.sessions = 16;
    so.rate_per_s = 1500.0;
    so.mean_turns = 2.5;
    so.think_time_s = 1e-3;
    so.decode_tokens = 2;
    so.max_prompt_len = kSeq;
    so.prompt_mean_len = 24.0;
    so.prefix_population = 3;
    so.prefix_mean_len = 32.0;
    auto trace = runtime::make_session_trace(so, 5);

    int calls = 0;
    int first_touches = 0;
    std::set<std::tuple<bool, int, int>> seen;
    auto prefill = [&](int b, int len) {
        ++calls;
        first_touches += seen.emplace(true, b, len).second ? 1 : 0;
        return pc.program(b, len);
    };
    auto decode = [&](int b) {
        ++calls;
        first_touches += seen.emplace(false, b, kSeq).second ? 1 : 0;
        return dc.program(b);
    };
    auto reset = [&] {
        calls = 0;
        first_touches = 0;
        seen.clear();
    };

    runtime::ClusterOptions copts;
    copts.replicas = kReplicas;
    copts.router = runtime::RouterPolicy::kRoundRobin;
    copts.server = prefix_options();
    runtime::Cluster cluster(dc.machine(), copts);
    std::vector<runtime::ClusterReport> serves;
    std::vector<int> serve_calls;
    std::vector<int> serve_first_touches;
    for (int k = 0; k < 3; ++k) {
        reset();
        serves.push_back(cluster.serve(trace, prefill, decode));
        serve_calls.push_back(calls);
        serve_first_touches.push_back(first_touches);
    }

    // The serial reference: route() partitions the trace (no
    // migration, so sub-traces are the requests themselves).
    const std::vector<int> where = cluster.route(trace);
    std::vector<std::vector<runtime::Request>> sub(kReplicas);
    for (size_t k = 0; k < trace.size(); ++k) {
        sub[where[k]].push_back(trace[k]);
    }
    runtime::Server server(dc.machine(), cluster.options().server);
    reset();
    std::vector<std::string> expected;
    for (const auto& s : sub) {
        ASSERT_FALSE(s.empty());
        expected.push_back(server.serve(s, prefill, decode).serialize_bits());
    }

    for (size_t k = 0; k < serves.size(); ++k) {
        ASSERT_EQ(serves[k].replica_reports.size(),
                  static_cast<size_t>(kReplicas));
        for (int i = 0; i < kReplicas; ++i) {
            EXPECT_EQ(serves[k].replica_reports[i].serialize_bits(),
                      expected[i])
                << "serve " << k << " replica " << i;
        }
        EXPECT_EQ(serves[k].serialize_bits(), serves[0].serialize_bits())
            << "serve " << k;
        EXPECT_EQ(serve_calls[k], calls) << "serve " << k;
        EXPECT_EQ(serve_first_touches[k], static_cast<int>(seen.size()))
            << "serve " << k;
    }
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests

TEST_F(ClusterServingTest, DeathOnMisconfiguration)
{
    sim::Machine machine(testing::tiny_chip());
    // Bad ClusterOptions are user errors: a worded fatal (exit 1),
    // never an internal panic.
    auto rejects = [&](const runtime::ClusterOptions& copts,
                       const std::string& what) {
        EXPECT_EXIT(runtime::Cluster(machine, copts),
                    ::testing::ExitedWithCode(1),
                    "\\[elk FATAL\\] Cluster: .*" + what);
    };
    {
        runtime::ClusterOptions copts;
        copts.replicas = 0;
        copts.server = plain_options();
        rejects(copts, "replica count");
    }
    {
        // Session affinity keys on prefix ids: prefix_sharing off is
        // fatal.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.router = runtime::RouterPolicy::kSessionAffinity;
        copts.server = plain_options();
        rejects(copts, "prefix_sharing");
    }
    {
        // Migration without KV modeling is fatal.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.migrate_kv = true;
        copts.server = plain_options();
        rejects(copts, "kv_budget");
    }
    {
        // A prefill tier needs KV modeling (the decode tier's KV
        // arrives by migration).
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.prefill_replicas = 1;
        copts.server = plain_options();
        rejects(copts, "kv_budget");
    }
    {
        // ... and at least one decode replica left over.
        runtime::ClusterOptions copts;
        copts.replicas = 2;
        copts.prefill_replicas = 2;
        copts.server = prefix_options();
        rejects(copts, "decode replica");
    }
    {
        // Server-level: a migration tag without KV modeling is fatal
        // even when handed to the Server directly.
        runtime::Server server(machine, plain_options());
        std::vector<runtime::Request> trace(1);
        trace[0].phase = runtime::Phase::kDecode;
        trace[0].prompt_len = 16;
        trace[0].kv_migrate_tokens = 16;
        EXPECT_DEATH(
            server.serve(trace, nullptr, [](int) {
                return std::shared_ptr<const sim::SimProgram>();
            }),
            "needs KV modeling");
    }
    {
        // Decode-phase requests still require decode_tokens >= 1.
        runtime::Server server(machine, plain_options());
        std::vector<runtime::Request> trace(1);
        trace[0].phase = runtime::Phase::kDecode;
        trace[0].decode_tokens = 0;
        EXPECT_DEATH(
            server.serve(trace, nullptr, [](int) {
                return std::shared_ptr<const sim::SimProgram>();
            }),
            "decode_tokens");
    }
}

}  // namespace
}  // namespace elk
