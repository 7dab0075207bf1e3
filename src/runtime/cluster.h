/**
 * @file
 * Cluster-scale serving: N identical chip replicas behind a
 * deterministic request router, with cross-chip KV migration priced
 * over a modeled interconnect (hw::Interconnect).
 *
 * A Cluster partitions one arrival-ordered Request trace into N
 * per-replica sub-traces — the routing decision — and then serves each
 * sub-trace with the existing single-chip Server scheduler on its own
 * EngineState, replicas in parallel (all replicas share one
 * sim::Machine description and the same compiled program sources).
 * Routing is a pure function of the trace and the options, so the
 * whole cluster serve is deterministic and bit-identical at any
 * compiler --jobs setting, and the anchor rule holds by construction:
 * a 1-replica round-robin cluster routes every request to replica 0
 * unchanged, reproducing today's Server bit-for-bit.
 *
 * Router policies:
 *  - round-robin: arrival order modulo the replica count.
 *  - least-loaded: join-shortest-queue on the router's load model,
 *    the fewest cumulative assigned tokens (prompt + decode) — a
 *    front-end estimate, since a real load balancer cannot see
 *    replica internals.
 *  - session-affinity: a request's shared-prefix id hashes to a home
 *    replica, so every carrier of one prefix lands on the chip whose
 *    cache holds it (requires prefix_sharing); untagged requests fall
 *    back to round-robin.
 *
 * KV migration (migrate_kv): when a prefix-tagged request is routed to
 * a replica that does not hold its prefix but another replica already
 * seeded it, the router tags the request with the shared segment's
 * token count and the hw::Interconnect transfer time from the holding
 * chip — the destination Server seeds its cache from the wire (a
 * prefix hit that stalls for the transfer) instead of re-prefilling
 * the prefix locally (today's per-replica miss semantics).
 *
 * Prefill tier (prefill_replicas = P > 0): replicas 0..P-1 become
 * dedicated prefill chips. Every prefill-phase request splits in two —
 * a prefill-only half (decode_tokens = 0) routed within the prefill
 * tier, and a decode-phase half routed within the decode tier whose
 * KV arrives as an interconnect migration from its prefill chip. The
 * headline disaggregated-cluster scenario: prompts ingest on one tier,
 * tokens decode on the other, KV flows over the wire. The split is a
 * fluid approximation: the decode half keeps the original arrival
 * time (its migration stall prices the transfer, but cross-tier
 * completion ordering is not enforced). With SLO serving
 * (ServerOptions::slo, docs/TENANCY.md) both halves bill the
 * request's tenant, but only the decode half keeps the deadline — a
 * request meets its SLO when its last token lands, so counting the
 * prefill half too would double-book one logical deadline.
 */
#ifndef ELK_RUNTIME_CLUSTER_H
#define ELK_RUNTIME_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "hw/interconnect.h"
#include "runtime/server.h"

namespace elk::runtime {

/// How the cluster router assigns requests to replicas.
enum class RouterPolicy {
    kRoundRobin,       ///< arrival order modulo replica count.
    kLeastLoaded,      ///< join-shortest-queue on the router's load model.
    kSessionAffinity,  ///< prefix id hashes to a home replica.
};

/// Human-readable name of a router policy.
std::string router_policy_name(RouterPolicy policy);

/// Cluster-level serving knobs.
struct ClusterOptions {
    /// Chip replica count (>= 1).
    int replicas = 1;
    RouterPolicy router = RouterPolicy::kRoundRobin;
    /// Per-replica Server knobs (every replica is identical).
    ServerOptions server;
    /// Chip-to-chip fabric; link_bw 0 resolves to the machine's
    /// ChipConfig::inter_chip_bw.
    hw::InterconnectConfig interconnect;
    /// Migrate shared prefix KV segments across chips instead of
    /// re-prefilling per replica (requires server.prefix_sharing).
    bool migrate_kv = false;
    /// First prefill_replicas replicas form a dedicated prefill tier
    /// feeding the remaining decode tier (0 = no tiering; requires
    /// server.kv_budget > 0 and replicas >= 2 when set — decode-tier
    /// KV arrives by migration, which lives in the modeled pool).
    int prefill_replicas = 0;
};

/// Cluster roll-up plus the per-replica reports it aggregates.
struct ClusterReport {
    int replicas = 0;
    /// Requests the original trace contained.
    int requests = 0;
    /// Requests routed across all replicas: equals requests without a
    /// prefill tier; with tiering every prefill-phase request counts
    /// its prefill and decode halves separately.
    int routed = 0;
    /// Decode tokens produced cluster-wide (sum of replica tokens).
    int64_t tokens = 0;
    /// Clock when the last replica finished (replicas run in parallel
    /// wall-clock; each replica's serve is its own timeline).
    double makespan = 0.0;
    /// Cluster goodput: tokens / makespan.
    double tokens_per_s = 0.0;
    /// Mean request latency over all routed requests (count-weighted
    /// across replicas; a tier split's halves each contribute).
    double mean_latency = 0.0;
    double max_latency = 0.0;
    /// Mean TTFT over prefill-phase routed requests (count-weighted).
    double mean_ttft = 0.0;
    /// Per-replica load imbalance: (max - min) / mean of per-replica
    /// decode token counts; 0 for one replica or an idle cluster.
    double util_skew = 0.0;
    /// Payload bytes KV migrations carried over the interconnect.
    int64_t interconnect_bytes = 0;
    /// Cross-chip KV migrations consumed (sum of replica counters).
    int64_t kv_migrations = 0;
    int64_t kv_migrated_tokens = 0;
    double kv_migration_stall = 0.0;
    /// Engine runs replayed from the iteration memo (sum of replica
    /// counters). A work counter, not a result: serialize_bits()
    /// leaves it out.
    int64_t engine_replays = 0;
    /// SLO roll-up (present when the replicas run ServerOptions::slo):
    /// deadline carriers and misses summed across replicas, the worst
    /// replica's p99 lateness (an SLO is only as good as the slowest
    /// chip), and the per-tenant shares re-aggregated cluster-wide
    /// (token_share over cluster work, attainment over cluster
    /// carriers). See docs/TENANCY.md.
    bool slo = false;
    int deadline_requests = 0;
    int deadline_misses = 0;
    /// (met deadlines) / (deadline carriers); 1 with no carriers.
    double slo_attainment = 0.0;
    double worst_p99_lateness = 0.0;
    int deadline_preemptions = 0;
    std::vector<ServingReport::TenantShare> tenant_shares;
    /// Requests routed to each replica.
    std::vector<int> routed_per_replica;
    /// The full single-chip report of every replica, in replica order.
    std::vector<ServingReport> replica_reports;

    /// Multi-line human summary: the roll-up, then one line per
    /// replica.
    std::string summary() const;

    /// Byte-exact serialization: the roll-up fields, then every
    /// replica's ServingReport::serialize_bits() in order — equal
    /// strings iff the cluster serves are bit-identical.
    std::string serialize_bits() const;
};

/**
 * The cluster serving loop: route, serve every replica, roll up.
 * Replicas serve in parallel on min(replicas, hardware threads) host
 * threads, each on a fresh EngineState over the shared (immutable)
 * machine and each writing only its own replica_reports slot; the
 * roll-up then runs serially in replica order, so the report is
 * bit-identical at any width. The program sources are the one shared
 * mutable input: serve() calls them from one thread at a time.
 */
class Cluster {
  public:
    /// Validates @p opts (replica count, policy/feature requirements,
    /// interconnect resolution); bad combinations are fatal here.
    /// @p machine must outlive the cluster.
    Cluster(const sim::Machine& machine, ClusterOptions opts);

    /**
     * Serves @p requests (sorted by arrival) to completion across the
     * replicas. @p prefill_programs / @p decode_programs are shared by
     * every replica — compiled programs are immutable, so one
     * ServingCompiler serves the whole cluster. Sources are called
     * from one thread at a time (under one lock across both), so they
     * need not be thread-safe; they may run on any thread, and a
     * source that compiles may fan out on its own ThreadPool.
     */
    ClusterReport serve(
        const std::vector<Request>& requests,
        const Server::PrefillProgramSource& prefill_programs,
        const Server::ProgramSource& decode_programs) const;

    /**
     * The routing decision alone (exposed for tests): the replica
     * each request of @p requests is assigned to — with a prefill
     * tier, the replica of the half that produces the request's
     * tokens (the decode half for split prefill requests).
     */
    std::vector<int> route(const std::vector<Request>& requests) const;

    /// The finalized options (interconnect link_bw resolved).
    const ClusterOptions& options() const { return opts_; }

    /// The resolved chip-to-chip fabric.
    const hw::Interconnect& fabric() const { return fabric_; }

  private:
    /// Routes @p requests into @p sub (one sorted sub-trace per
    /// replica), tagging migrations and splitting tier requests;
    /// returns the primary replica per original request and fills
    /// @p prefill_counts with per-replica prefill-phase request
    /// counts (the mean-TTFT weights).
    std::vector<int> route_into(const std::vector<Request>& requests,
                                std::vector<std::vector<Request>>& sub,
                                std::vector<int>& prefill_counts) const;

    const sim::Machine& machine_;
    ClusterOptions opts_;
    hw::Interconnect fabric_;
};

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_CLUSTER_H
