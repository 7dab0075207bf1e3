/**
 * @file
 * The serving runtime: a request scheduler on top of the resumable
 * simulator engine.
 *
 * A Server turns the one-shot "compile a decode step, simulate it"
 * flow into continuous serving: requests arrive on a trace (closed
 * loop or Poisson open loop), are admitted into iterations with
 * iteration-level batching, and every iteration executes a compiled
 * SimProgram on one persistent EngineState — so weights kept resident
 * across back-to-back iterations skip their HBM preload, the
 * steady-state decode fast path.
 *
 * Serving is disaggregated: requests carry a phase — prefill (the
 * prompt must be ingested by a forward iteration first) or decode
 * (token generation only) — and prefill and decode form separate
 * arrival classes with their own batch buckets and compiled program
 * families, sharing one EngineState residency pool. Prompts carry
 * their own length: queued prompts are grouped into the smallest
 * covering (batch, prompt-length) bucket, so a short prompt runs a
 * prefill program compiled at its bucketed length instead of paying
 * for a full-sequence forward pass (the report's padding-waste
 * counters measure exactly what that saves). Requests
 * also carry a priority class: a high-priority arrival preempts a
 * running all-normal iteration at the next step() boundary — the
 * victim's interpreter frame is parked, one iteration serving the
 * high-priority requests runs, and the victim resumes exactly where it
 * stopped (EngineState::park/resume). When no preemption fires,
 * step-driven results are bit-identical to unpreempted runs.
 *
 * With a non-zero ServerOptions::kv_budget, decode KV state competes
 * with resident weights for SRAM as residency-pool segments (see
 * runtime/kv_ledger.h); the default (0) keeps KV memory free,
 * bit-identical to the pre-KV scheduler. With ServerOptions::slo,
 * requests carry tenants and deadlines: EDF queues, deficit-round-robin
 * tenant shares and budgeted deadline preemption (runtime/wait_queues.h,
 * docs/TENANCY.md). slo off is bit-identical to the two-class
 * scheduler, as is slo on over a single-tenant, no-deadline,
 * single-phase trace (tests/slo_test.cc).
 *
 * The ServingReport aggregates the paper-style serving metrics: tail
 * latency percentiles, time-to-first-token, tokens/s goodput, queue
 * depth, preemption counts, time-weighted HBM/NoC utilization, and
 * (with slo) SLO attainment and per-tenant token shares.
 * Everything is deterministic: serving the same trace with the same
 * programs is bit-identical at any compiler --jobs setting
 * (serialize_bits is the proof hook).
 */
#ifndef ELK_RUNTIME_SERVER_H
#define ELK_RUNTIME_SERVER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"

namespace elk::runtime {

/// Arrival-time generators for serving experiments (seconds, sorted).
struct ArrivalTrace {
    /// Closed loop: all @p n requests queued at t = 0.
    static std::vector<double> closed_loop(int n);

    /**
     * Open loop: @p n Poisson arrivals at @p rate_per_s requests/s.
     * Gaps are drawn from a hand-rolled xorshift-free mt19937_64 +
     * inverse-CDF exponential, so the trace is bit-identical for one
     * @p seed on every platform and standard library.
     */
    static std::vector<double> poisson(int n, double rate_per_s,
                                       uint64_t seed);

    /**
     * Bursty open loop: a two-state Markov-modulated Poisson process
     * averaging @p rate_per_s requests/s. 10% of the time the process
     * sits in a burst state arriving at @p burst_factor x the mean
     * rate; the calm state's rate is scaled down so the long-run mean
     * stays @p rate_per_s. @p burst_factor must be in [1, 10);
     * 1 degenerates to Poisson exactly — the trace equals
     * poisson(n, rate_per_s, seed) element-by-element. Same
     * platform-stable draw discipline as poisson(), with the
     * state-holding times on their own domain-separated stream.
     */
    static std::vector<double> bursty(int n, double rate_per_s,
                                      double burst_factor,
                                      uint64_t seed);
};

/// Which serving stage a request arrives in.
enum class Phase {
    kPrefill,  ///< needs one prefill iteration before decoding.
    kDecode,   ///< decode-only (e.g. a migrated / resumed request).
};

/// Scheduling class of a request.
enum class Priority {
    kNormal,
    /// Admitted ahead of normal requests at every boundary, and (with
    /// ServerOptions::preempt) preempts a running all-normal
    /// iteration at the next step() boundary on arrival.
    kHigh,
};

/// One serving request of the disaggregated scheduler.
struct Request {
    double arrival = 0.0;  ///< seconds; requests must be sorted.
    Phase phase = Phase::kPrefill;
    Priority priority = Priority::kNormal;
    /// Decode tokens generated after the prefill; the request
    /// completes when the last one is produced. Must be >= 1 for
    /// decode-phase requests. Prefill-phase requests may carry 0: the
    /// request completes (and frees its KV) the moment its prompt is
    /// ingested, never joining the decode class — the prefill half of
    /// a disaggregated prefill-tier/decode-tier cluster split.
    int decode_tokens = 1;
    /// Prompt tokens the prefill iteration must ingest. 0 (default)
    /// means the full model sequence length
    /// (ServerOptions::max_prompt_len) — the fixed-shape scheduler's
    /// behavior. Ignored for decode-phase requests.
    int prompt_len = 0;
    /// Shared-prefix population id this prompt starts with, or -1
    /// (default) for a fully private prompt. Requires
    /// ServerOptions::prefix_sharing and Phase::kPrefill.
    int prefix_id = -1;
    /// Prompt tokens the shared prefix covers; must be in
    /// [1, prompt_len - 1] when prefix_id >= 0 (at least one residual
    /// token always reaches prefill). Ignored when prefix_id < 0.
    int prefix_len = 0;
    /// Tokens of KV state arriving with this request over the
    /// cluster's chip-to-chip interconnect (set by the cluster router;
    /// 0 = none, the default). Requires KV modeling (kv_budget > 0).
    /// On a decode-phase request the migrated KV replaces the local
    /// HBM refetch a bare decode arrival would pay; on a prefill-phase
    /// request it must equal prefix_len — the shared prefix segment is
    /// imported (seeding the local cache) instead of being re-prefilled.
    int kv_migrate_tokens = 0;
    /// Seconds the migration transfer stalls this chip's clock,
    /// priced by the router's hw::Interconnect at routing time (the
    /// server stays interconnect-ignorant). Charged like a KV refetch
    /// stall when the migration is consumed; a migration skipped
    /// because the prefix is already cached locally charges nothing.
    double kv_migrate_stall = 0.0;
    /// Tenant this request bills against, in [0, ServerOptions::
    /// tenants). Requires ServerOptions::slo when non-zero (the
    /// default tenant 0 is what untagged traces carry).
    int tenant = 0;
    /// Absolute completion deadline (seconds, same clock as arrival);
    /// 0 (default) = no deadline. Requires ServerOptions::slo when
    /// set, and must not precede the arrival. Deadline carriers are
    /// claimed earliest-deadline-first and may trigger a bounded
    /// preemption (see ServerOptions::preempt_budget); a request that
    /// completes after its deadline counts one miss and its lateness
    /// enters the report's SLO block.
    double deadline_s = 0.0;
};

/// @p r's prompt length with the 0 = "full model sequence length"
/// default resolved against @p max_prompt_len.
inline int
effective_prompt_len(const Request& r, int max_prompt_len)
{
    return r.prompt_len > 0 ? r.prompt_len : max_prompt_len;
}

/// Helpers to build Request traces from plain arrival times.
std::vector<Request> decode_requests(const std::vector<double>& arrivals,
                                     int decode_tokens);
std::vector<Request> prefill_requests(const std::vector<double>& arrivals,
                                      int decode_tokens);

/**
 * Tags a plain arrival trace into a mixed Request trace: each request
 * is prefill-phase with probability @p prefill_frac and high-priority
 * with probability @p high_frac, drawn from a seeded mt19937_64 so
 * the tagging is bit-identical for one @p seed on every platform.
 * Fractions of 0 and 1 are exact (no draws consumed differently).
 */
std::vector<Request> make_request_trace(
    const std::vector<double>& arrivals, int decode_tokens,
    double prefill_frac, double high_frac, uint64_t seed);

/**
 * Assigns every request a geometric-tailed prompt length in
 * [1, @p max_len]: lengths are 1 + an inverse-CDF exponential of mean
 * @p mean_len drawn from a seeded mt19937_64, clamped to @p max_len —
 * bit-identical for one @p seed on every platform and standard
 * library (one draw per request regardless of phase, so the tagging
 * never depends on the phase mix). The length-skewed trace is where
 * (batch, prompt-length) bucketed prefill beats full-length prefill.
 */
void tag_prompt_lengths(std::vector<Request>& requests, int max_len,
                        double mean_len, uint64_t seed);

/**
 * Assigns every request a tenant id drawn uniformly from
 * [0, @p tenants), from its own domain-separated seeded mt19937_64
 * stream — bit-identical for one @p seed on every platform, one draw
 * per request, and independent of every other tagging stream (the
 * tag_prompt_lengths() discipline). @p tenants == 1 tags every
 * request tenant 0 exactly (no draws consumed).
 */
void tag_tenants(std::vector<Request>& requests, int tenants,
                 uint64_t seed);

/**
 * Assigns every request the absolute deadline `arrival + slo_s` — the
 * uniform-SLO tagging the `elkc serve --slo` driver applies. Purely
 * arithmetic (no draws), so it is trivially platform-stable and never
 * perturbs any seeded stream. @p slo_s must be positive.
 */
void tag_deadlines(std::vector<Request>& requests, double slo_s);

/// Smallest of the sorted @p buckets covering @p need; the largest
/// bucket when none does. The server's prompt-length bucket rule;
/// batch buckets follow the same rule over the power-of-two ladder up
/// to max_batch (decode) or max_prefill_batch (prefill).
int pick_bucket(const std::vector<int>& buckets, int need);

/**
 * Knobs for make_session_trace(): conversational traffic — multi-turn
 * sessions with think-time between turns, a Zipf-popular population of
 * shared prompt prefixes, and an optionally bursty session arrival
 * process. The defaults (single turn, no prefixes, burst_factor 1)
 * reduce to a Poisson prefill trace.
 */
struct SessionTraceOptions {
    int sessions = 0;           ///< conversation count (>= 0).
    double rate_per_s = 0.0;    ///< session arrival rate; 0 = all at
                                ///< t = 0 (closed loop).
    double burst_factor = 1.0;  ///< ArrivalTrace::bursty() factor in
                                ///< [1, 10); 1 = plain Poisson.
    double mean_turns = 1.0;    ///< mean prompts per session (>= 1,
                                ///< geometric tail).
    double think_time_s = 0.0;  ///< mean gap between a session's
                                ///< turns (exponential; 0 = back to
                                ///< back).
    int decode_tokens = 1;      ///< decode tokens per turn.
    int max_prompt_len = 0;     ///< model sequence length (>= 1; >= 2
                                ///< when prefixes are in play).
    double prompt_mean_len = 0.0;  ///< geometric mean of the private
                                   ///< suffix length; 0 = full-length
                                   ///< prompts.
    int prefix_population = 0;  ///< distinct shared prefixes; 0
                                ///< disables prefix tagging entirely.
    double prefix_zipf_s = 1.0; ///< Zipf popularity exponent.
    double prefix_mean_len = 0.0;  ///< geometric mean of a prefix's
                                   ///< canonical length.
};

/**
 * Builds a conversational Request trace: sessions arrive on a
 * (possibly bursty) open-loop process, each runs a geometric number of
 * prefill turns separated by exponential think-time, every turn of a
 * session reuses the session's Zipf-drawn shared prefix id, and each
 * turn's prompt is that prefix plus a geometric private suffix
 * (clamped so at least one residual token always reaches prefill).
 * All requests are prefill-phase, normal priority, sorted by arrival.
 * Every distribution draws from its own domain-separated mt19937_64
 * stream — like tag_prompt_lengths(), the trace is bit-identical for
 * one @p seed on every platform and standard library, and changing
 * one knob never perturbs another knob's draws.
 */
std::vector<Request> make_session_trace(const SessionTraceOptions& opts,
                                        uint64_t seed);

/// Serving knobs.
struct ServerOptions {
    /// Largest decode batch one iteration can run (slot count). Decode
    /// programs are compiled per batch bucket: powers of two up to
    /// max_batch, the smallest covering the running batch.
    int max_batch = 32;
    /// Decode tokens each request needs before it completes (the
    /// plain-arrival serve() entry point; Request carries its own).
    int tokens_per_request = 1;
    /// Largest number of prompts one prefill iteration ingests
    /// (bucketed like max_batch: powers of two up to it).
    int max_prefill_batch = 4;
    /// Model sequence length: the longest prompt a prefill iteration
    /// can ingest, and what Request::prompt_len == 0 resolves to.
    /// Required (>= 1) whenever a trace contains prefill-phase
    /// requests; 0 (default) = decode-only serving.
    int max_prompt_len = 0;
    /// Prompt-length buckets prefill programs are compiled at; the
    /// server picks the smallest bucket covering the longest prompt
    /// in the claimed batch. Empty = powers of two up to
    /// max_prompt_len. A single {max_prompt_len} bucket forces every
    /// prompt through full-length prefill (the fixed-shape
    /// scheduler).
    std::vector<int> prompt_buckets;
    /// Keep operator weights resident in SRAM across iterations
    /// (oldest evicted first under pressure); off = every iteration
    /// re-preloads from HBM like a one-shot run.
    bool keep_resident = true;
    /// Let high-priority arrivals park a running all-normal iteration
    /// at the next step() boundary (off = they still jump the queues,
    /// but never interrupt an iteration in flight).
    bool preempt = true;
    /// Per-core byte cap on decode KV state held resident in SRAM.
    /// 0 (default) disables KV modeling entirely — KV memory is free,
    /// the pre-KV behavior, bit-identical to it. When > 0 every
    /// request owns a KV segment in the engine's residency pool:
    /// allocated at prefill admission (sized by its prompt length),
    /// grown one token per decode iteration, pinned while its
    /// iteration runs or is parked by preemption, freed at
    /// completion. Segments past the budget spill to HBM and stall
    /// the next iteration while they stream back; prompts whose KV
    /// would not fit are deferred at admission (backpressure).
    uint64_t kv_budget = 0;
    /// KV-cache bytes one token appends across the whole machine
    /// (graph::kv_bytes_per_token(model); the server divides by the
    /// core count). Required > 0 when kv_budget > 0.
    uint64_t kv_bytes_per_token = 0;
    /// Serve prompts tagged with shared-prefix ids (Request::
    /// prefix_id) from a prefix cache: the first prompt carrying a
    /// prefix seeds a refcounted shared KV segment, later prompts hit
    /// it and skip the covered prefill tokens — the prefill bucket is
    /// chosen for the residual length only. Requires kv_budget > 0
    /// (prefix KV lives in the modeled pool; fatal otherwise). Off
    /// (default) rejects prefix-tagged requests and is bit-identical
    /// to the prefix-free scheduler.
    bool prefix_sharing = false;
    /// Multi-tenant SLO scheduling: honor Request::tenant and
    /// Request::deadline_s — EDF-ordered wait queues (deterministic
    /// ties on request id), per-tenant fairness shares at claim time,
    /// deadline-triggered preemption under preempt_budget, and the
    /// SLO block in the report. Off (default) rejects tagged requests
    /// and is bit-identical to the two-class scheduler; on, a
    /// single-tenant no-deadline trace still reproduces it bit-for-
    /// bit when the trace is single-phase (the tests/slo_test.cc
    /// anchor) — with prefill and decode mixed, slo re-sorts prefill
    /// graduates in the decode queues by id, not completion order.
    bool slo = false;
    /// Tenant id domain [0, tenants) requests may carry. Must be >= 1;
    /// > 1 requires slo.
    int tenants = 1;
    /// Per-tenant fairness weights (relative, normalized internally).
    /// Empty (default) = equal shares; otherwise exactly `tenants`
    /// positive entries. Requires slo when non-empty. One fairness
    /// window distributes max_batch + max_prompt_len work tokens in
    /// proportion to the shares (deficit-round-robin): a tenant claims
    /// batch slots only while its budget is positive, and the window
    /// replenishes whenever waiting work exists but nothing is
    /// claimable, so shares govern claim *order* under contention and
    /// never idle the chip.
    std::vector<double> tenant_shares;
    /// Deadline preemptions one request may *trigger* (each firing
    /// decrements the triggering request's budget; riders served by
    /// the same nested iteration spend nothing). 0 disables deadline
    /// preemption entirely; high-priority preemption (preempt) is
    /// unaffected either way. Only meaningful with slo.
    int preempt_budget = 1;
    /// Chunked prefill: split every prompt into chunks of at most this
    /// many tokens (a power of two; the last chunk carries the
    /// residual), each chunk scheduled through the (batch,
    /// prompt-length) bucket grid like a short prompt. Between the
    /// chunks of a long prompt the scheduler yields one decode
    /// iteration whenever decode work waits, so decode latency stops
    /// stalling behind whole long prompts; a chunk's KV grows the
    /// request's segment incrementally and TTFT fires when the final
    /// chunk retires. Chunking also makes prefill claiming
    /// length-aware: the prefill queues order by (effective deadline,
    /// remaining length, id) under a bounded fairness window
    /// (kChunkStarveLimit passes), so short prompts and near-deadline
    /// chunks claim first without starving giants. That order is kept
    /// as prompts enter the queue and as they cross the cap, never
    /// re-sorted, so no claim pays for sorting the backlog. Must be <=
    /// max_prompt_len and needs a multi-entry prompt-bucket ladder
    /// (with a single full-length bucket every chunk would pad to the
    /// full sequence — fatal). 0 (default) = off, bit-identical to
    /// the unchunked scheduler.
    int prefill_chunk = 0;
    /// KV-locality-aware decode claiming: batch membership prefers
    /// requests whose KV segment is still resident in SRAM; a spilled
    /// request is claimed only when no resident request can fill the
    /// slot (each examined-and-passed-over spilled request counts one
    /// kv_locality_skips). Work-conserving: when nothing resident can
    /// run, the spilled head runs exactly as without this flag.
    /// Requires kv_budget > 0 (fatal otherwise). Off (default) is
    /// bit-identical to residency-blind claiming.
    bool kv_locality = false;
};

/**
 * The chunk schedule prefill_chunk imposes on a prompt: full chunks of
 * @p chunk tokens followed by one residual chunk with the remainder
 * (e.g. a 100-token prompt at chunk 32 -> {32, 32, 32, 4}). @p chunk
 * must be a positive power of two; @p prompt_len >= 1. A prompt no
 * longer than @p chunk yields a single chunk — the degenerate case the
 * chunked bit-identity anchor relies on.
 */
std::vector<int> chunk_plan(int prompt_len, int chunk);

/// Aggregate serving metrics for one trace (paper-style tail report).
struct ServingReport {
    int requests = 0;       ///< requests the trace contained.
    int iterations = 0;     ///< engine iterations run (all classes).
    int64_t tokens = 0;     ///< decode tokens produced (goodput base).
    double makespan = 0.0;  ///< clock when the last request completed.

    // --- request latency (arrival -> last token), seconds ---
    double mean_latency = 0.0;
    double p50_latency = 0.0;
    double p95_latency = 0.0;
    double p99_latency = 0.0;
    double max_latency = 0.0;

    /// Completed tokens per second of makespan (goodput; padded batch
    /// slots do not count).
    double tokens_per_s = 0.0;

    // --- queue (waiting requests, excl. the running batch) ---
    double mean_queue_depth = 0.0;  ///< time-weighted.
    int peak_queue_depth = 0;

    // --- resources (time-weighted over busy iterations) ---
    double hbm_util = 0.0;
    double noc_util = 0.0;
    uint64_t peak_sram_per_core = 0;
    bool memory_exceeded = false;

    // --- residency effect ---
    /// preload_only seconds of the first decode iteration (cold).
    double first_decode_preload = 0.0;
    /// Mean preload_only seconds of the remaining decode iterations
    /// (warm).
    double steady_decode_preload = 0.0;
    /// Weights resident per core when serving finished.
    uint64_t resident_bytes = 0;
    /// Preloads satisfied from resident weights (no HBM traffic).
    int64_t preloads_skipped = 0;
    /// Engine runs completed from the iteration memo instead of
    /// stepped (EngineState::replays()). A work counter, not a result:
    /// serialize_bits() leaves it out, so a memoized serve and one that
    /// steps every run stay bit-identical.
    int64_t engine_replays = 0;

    // --- disaggregation / preemption ---
    int prefill_iterations = 0;
    int decode_iterations = 0;
    /// Iterations parked for a high-priority arrival (and resumed).
    int preemptions = 0;
    /// Time to first token (arrival -> prefill completion), over
    /// prefill-phase requests only; zero when the trace has none.
    double mean_ttft = 0.0;
    double p50_ttft = 0.0;
    double p95_ttft = 0.0;
    double max_ttft = 0.0;
    int high_priority_requests = 0;
    /// p95 request latency within the high-priority class (zero when
    /// the trace has none).
    double p95_high_latency = 0.0;

    // --- variable-length prefill ---
    /// Actual prompt tokens ingested across prefill iterations.
    int64_t prompt_tokens = 0;
    /// Token slots the compiled prefill programs computed beyond the
    /// actual prompts: batch padding up to the batch bucket plus
    /// length padding up to the prompt bucket. The waste that
    /// (batch, prompt-length) bucketing exists to shrink.
    int64_t padded_prompt_tokens = 0;
    /// Iterations run per compiled (batch, prompt_len) prefill
    /// bucket, sorted by (prompt_len, batch).
    struct PrefillBucket {
        int batch = 0;       ///< batch bucket the program was built at.
        int prompt_len = 0;  ///< prompt-length bucket.
        int iterations = 0;  ///< iterations served from this bucket.
    };
    std::vector<PrefillBucket> prefill_bucket_iterations;

    // --- KV residency (ServerOptions::kv_budget > 0; all zero when
    // --- KV modeling is off) ---
    /// KV modeling was enabled for this serve (gates the summary
    /// block; the counters below are all zero when false).
    bool kv_modeled = false;
    /// High-water mark of resident KV bytes per core.
    uint64_t kv_bytes_peak = 0;
    /// Time-weighted mean of resident KV bytes per core.
    double mean_kv_bytes = 0.0;
    /// KV segments spilled to HBM — at the KV budget boundary or
    /// under SRAM pressure against resident weights.
    int64_t kv_evictions = 0;
    /// KV streams charged before an iteration could run: spilled
    /// segments fetched back, plus decode-phase arrivals whose KV
    /// state migrates in from HBM.
    int64_t kv_refetches = 0;
    /// Seconds serving stalled on those KV streams.
    double kv_stall = 0.0;
    /// Prompt claims postponed because their KV segment would not fit
    /// the budget next to the segments already resident
    /// (admission backpressure).
    int deferred_admissions = 0;
    /// Cross-chip KV migrations consumed: requests whose KV state
    /// arrived over the cluster interconnect (Request::
    /// kv_migrate_tokens) instead of streaming from local HBM.
    int64_t kv_migrations = 0;
    /// Tokens of KV those migrations carried onto this chip.
    int64_t kv_migrated_tokens = 0;
    /// Seconds serving stalled on interconnect KV transfers (disjoint
    /// from kv_stall, which counts local HBM streams only).
    double kv_migration_stall = 0.0;

    // --- prefix cache (ServerOptions::prefix_sharing; all zero when
    // --- sharing is off) ---
    /// Prefix sharing was enabled for this serve (gates the summary
    /// block; the counters below are all zero when false).
    bool prefix_sharing = false;
    /// Prompts whose prefix id matched a cached shared segment.
    int64_t prefix_hits = 0;
    /// Prompt tokens those hits covered — tokens served from cached
    /// KV instead of being ingested by a prefill iteration.
    int64_t prefix_hit_tokens = 0;
    /// Program-level prefill token slots avoided: for every prefill
    /// iteration, the (batch bucket x length bucket) slots the claimed
    /// prompts would have needed at their full lengths, minus the
    /// slots the residual-length bucket actually computed.
    int64_t prefill_tokens_saved = 0;
    /// High-water mark of resident shared prefix KV bytes per core.
    uint64_t shared_kv_bytes = 0;

    // --- multi-tenant SLO (ServerOptions::slo; all zero when SLO
    // --- scheduling is off) ---
    /// SLO scheduling was enabled for this serve (gates the summary
    /// block; the counters below are all zero when false).
    bool slo = false;
    /// Tenant id domain served (ServerOptions::tenants).
    int tenants = 0;
    /// Requests that carried a deadline.
    int deadline_requests = 0;
    /// Deadline carriers that completed after their deadline.
    int deadline_misses = 0;
    /// Fraction of deadline carriers that met their deadline (1 when
    /// the trace carried none).
    double slo_attainment = 0.0;
    /// p99 of completion lateness (completion - deadline, clamped to
    /// >= 0) over deadline carriers.
    double p99_lateness = 0.0;
    /// Worst completion lateness over deadline carriers.
    double max_lateness = 0.0;
    /// Preemptions triggered by deadline urgency (a subset of
    /// `preemptions`, which also counts high-priority firings).
    int deadline_preemptions = 0;
    /// Fairness windows opened (per-tenant token budgets replenished).
    int64_t fairness_windows = 0;
    /// Per-tenant roll-up, one entry per tenant id in order.
    struct TenantShare {
        int tenant = 0;            ///< tenant id.
        int requests = 0;          ///< requests the tenant submitted.
        int64_t tokens = 0;        ///< work tokens served (prompt +
                                   ///< decode).
        double token_share = 0.0;  ///< tokens / all tenants' tokens.
        int deadline_requests = 0; ///< deadline carriers submitted.
        int deadline_misses = 0;   ///< of those, completed late.
        double attainment = 0.0;   ///< per-tenant SLO attainment.
    };
    std::vector<TenantShare> tenant_shares;

    // --- chunked prefill / KV-locality claiming (ServerOptions::
    // --- prefill_chunk / kv_locality; all zero when both are off) ---
    /// Chunk size served with (ServerOptions::prefill_chunk; 0 = off,
    /// gates the summary block).
    int prefill_chunk = 0;
    /// Prompts whose ingestion needed more than one chunk.
    int64_t chunked_prompts = 0;
    /// Chunk claims across all prefill iterations (== prompts claimed
    /// when every prompt fits one chunk; 0 when chunking is off).
    int64_t prefill_chunks = 0;
    /// Decode iterations the scheduler interleaved between the chunks
    /// of partially-ingested prompts (the head-of-line win).
    int64_t chunk_decode_interleaves = 0;
    /// KV-locality decode claiming was enabled
    /// (ServerOptions::kv_locality; gates the summary line).
    bool kv_locality = false;
    /// Spilled requests passed over by a decode claim because a
    /// KV-resident request could fill the slot instead.
    int64_t kv_locality_skips = 0;

    /// Multi-line human summary.
    std::string summary() const;

    /// Byte-exact serialization of every metric (IEEE bit patterns),
    /// all but the engine_replays work counter; equal strings iff the
    /// reports are bit-identical — the --jobs determinism check.
    std::string serialize_bits() const;
};

/**
 * The SLO roll-up ServingReport and ClusterReport share: fills every
 * share's token_share (over all shares' tokens) and attainment from
 * its counts, and sets the deadline totals and their attainment (1
 * with no carriers) across @p shares.
 */
void roll_up_tenant_shares(std::vector<ServingReport::TenantShare>& shares,
                           int& deadline_requests, int& deadline_misses,
                           double& slo_attainment);

/// One "\n  tenant N     : ..." summary line per entry of @p shares.
std::string tenant_share_lines(
    const std::vector<ServingReport::TenantShare>& shares);

/// Appends the entry count, then every entry of @p shares, to @p out.
void append_tenant_shares(
    std::string& out, const std::vector<ServingReport::TenantShare>& shares);

/**
 * The serving loop. The server owns no compiler: a ProgramSource maps
 * a batch bucket to its compiled+lowered program (see
 * compiler::ServingCompiler), so the same loop serves any frontend.
 */
class Server {
  public:
    /// Compiled program for one batch bucket; must stay valid for the
    /// duration of serve(). Returning the same object for repeated
    /// buckets is what enables cross-iteration weight residency.
    using ProgramSource =
        std::function<std::shared_ptr<const sim::SimProgram>(int batch)>;

    /// Compiled prefill program for one (batch, prompt_len) bucket —
    /// the two-dimensional grid (see ServingCompiler::program(batch,
    /// prompt_len)); the same validity and identity rules as
    /// ProgramSource apply.
    using PrefillProgramSource =
        std::function<std::shared_ptr<const sim::SimProgram>(
            int batch, int prompt_len)>;

    /// Validates and finalizes @p opts (prompt-bucket ladder, KV knobs);
    /// bad combinations are fatal here, not mid-serve. @p machine
    /// must outlive the server.
    Server(const sim::Machine& machine, ServerOptions opts);

    /// Serves @p arrivals (sorted seconds) to completion as
    /// decode-only, normal-priority requests of
    /// options().tokens_per_request tokens each — the PR 2 fast path,
    /// bit-identical to the disaggregated scheduler on the same
    /// degenerate trace. KV modeling is not supported on this
    /// reference loop: kv_budget > 0 is fatal here (use the
    /// Request-based overload).
    ServingReport serve(const std::vector<double>& arrivals,
                        const ProgramSource& programs) const;

    /**
     * The disaggregated scheduler: serves @p requests (sorted by
     * arrival) to completion. Prefill-phase requests are batched into
     * prefill iterations — the claimed prompts are grouped into the
     * smallest covering (batch, prompt-length) bucket of @p
     * prefill_programs, prefill-first scheduling — then join the
     * decode class; decode iterations run @p decode_programs buckets.
     * Both program families execute on one EngineState, sharing its
     * residency pool — give them disjoint op-id namespaces
     * (ServingCompiler::Options). @p prefill_programs may be empty
     * when no request has Phase::kPrefill.
     */
    ServingReport serve(const std::vector<Request>& requests,
                        const PrefillProgramSource& prefill_programs,
                        const ProgramSource& decode_programs) const;

    /// The finalized options (default prompt-bucket ladder filled in).
    const ServerOptions& options() const { return opts_; }

  private:
    const sim::Machine& machine_;
    ServerOptions opts_;
};

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_SERVER_H
