#include "runtime/server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <sstream>
#include <utility>

#include "runtime/metrics.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/stats.h"

namespace elk::runtime {

using util::append_bits;

int
pick_bucket(const std::vector<int>& buckets, int need)
{
    for (int b : buckets) {
        if (b >= need) {
            return b;
        }
    }
    return buckets.back();
}

std::vector<int>
chunk_plan(int prompt_len, int chunk)
{
    util::check(prompt_len >= 1, "chunk_plan: prompt_len must be >= 1");
    util::check(chunk >= 1 && (chunk & (chunk - 1)) == 0,
                "chunk_plan: chunk must be a positive power of two");
    std::vector<int> out;
    out.reserve(static_cast<size_t>((prompt_len + chunk - 1) / chunk));
    int left = prompt_len;
    while (left > chunk) {
        out.push_back(chunk);
        left -= chunk;
    }
    out.push_back(left);
    return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The batch bucket covering @p need on the ladder {1, 2, 4, ...,
/// max}: the smallest power of two >= need, capped at @p max.
int
batch_bucket(int need, int max)
{
    int b = 1;
    while (b < need && b < max) {
        b *= 2;
    }
    return std::min(b, max);
}

/// Prompt-length bucket ladder: empty = powers of two up to @p max;
/// sorted and validated either way.
void
finalize_prompt_buckets(std::vector<int>& buckets, int max)
{
    if (buckets.empty()) {
        for (int b = 1; b < max; b *= 2) {
            buckets.push_back(b);
        }
        buckets.push_back(max);
    }
    std::sort(buckets.begin(), buckets.end());
    util::check(buckets.front() >= 1,
                "Server: prompt buckets must be positive");
    util::check(buckets.back() == max,
                "Server: largest prompt bucket must equal "
                "max_prompt_len");
}

sim::EngineState::Options
engine_options(const ServerOptions& opts)
{
    sim::EngineState::Options eopts;
    eopts.policy = opts.residency_policy;
    eopts.kv_budget = opts.kv_budget;
    return eopts;
}

/**
 * One serve() call of the disaggregated scheduler. Requests wait in
 * four queues — (prefill | decode) x (high | normal) — and every
 * iteration serves one class: prefill-first (a waiting prompt blocks
 * nothing longer than one iteration and unlocks its decode work),
 * high before normal within a class. Queue order is claim order:
 * arrival order, EDF with slo, and the length/KV-aware order under
 * chunking. Nothing re-sorts a queue: enqueue() inserts at the claim
 * position, and under chunking promote_starved() moves each prompt
 * that crosses the starvation cap into its queue's starved prefix.
 * Starvation is measured on a prefill-claim clock, so the order of the
 * prompts that are not crossing never changes between claims.
 *
 * Every iteration fills its batch through one claim walk, claim():
 * queue order, the slo mode and deficit gates, fairness windows while
 * slots stay free, the cap — plus a per-member admission step the
 * caller supplies. Decode admits everyone. Prefill admits a prompt
 * when the KV ledger fits it (or it is oversized, or force-admitted),
 * and on admission runs the one per-member ingest step, ingest_prompt()
 * (prefix hit / migrate / miss, tail KV growth and pinning, the chunk
 * advance); with KV modeling off the ledger is empty and fits every
 * prompt. A prompt that does not fit ends the claim. If that leaves the
 * claim empty, no program runs: the loop falls back to decode work,
 * or force-admits when there is none, exactly as when the head prompt
 * does not fit.
 *
 * The decode batch is iteration-level: members persist across decode
 * iterations until their tokens are done. High-priority arrivals (and,
 * with slo, urgent deadline carriers within their preempt_budget)
 * preempt a running iteration at the next step() boundary via
 * EngineState::park(): one nested iteration of the same two routines
 * serves the urgent work on the same state, then the victim resumes
 * where it stopped. Programs load through the engine's iteration
 * memo (EngineState::begin_memo), which replays a repeated run whole
 * when no preemption watcher could fire inside it. On a decode-only
 * all-normal trace this loop performs exactly the accumulator
 * operations and engine runs of the plain serve() overload, which
 * steps every run, so the reports are bit-identical (asserted in
 * tests/preempt_test.cc).
 */
class DisaggRun {
  public:
    DisaggRun(const sim::Machine& machine, const ServerOptions& opts,
              const std::vector<Request>& requests,
              const Server::PrefillProgramSource& prefill_programs,
              const Server::ProgramSource& decode_programs)
        : machine_(machine),
          opts_(opts),
          requests_(requests),
          prefill_src_(prefill_programs),
          decode_src_(decode_programs),
          state_(machine, engine_options(opts))
    {
    }

    ServingReport run();

  private:
    struct IterOutcome {
        sim::SimResult r;
        /// Wall seconds the iteration actually ran (interrupting
        /// iterations excluded, so durations partition the makespan).
        double duration = 0.0;
    };

    int total_requests() const
    {
        return static_cast<int>(requests_.size());
    }

    size_t waiting_total() const
    {
        return pre_hi_.size() + pre_lo_.size() + dec_hi_.size() +
               dec_lo_.size();
    }

    /// Which waiting requests a claim may take.
    enum class ClaimMode {
        kAll,       ///< both classes (normal scheduling).
        kHighOnly,  ///< high-priority queue only (PR 3 preemption).
        /// High-priority members plus deadline carriers more urgent
        /// than urgent_thresh_ (deadline-triggered preemption).
        kUrgent,
    };

    /// Queues every request that has arrived by the current clock.
    void admit();
    /// Arrival time of the next unadmitted preemption watcher: a
    /// high-priority request, or (slo with a preemption budget) any
    /// deadline carrier.
    void refresh_next_high();
    /// A request's deadline with 0 = "none" mapped to +inf, so EDF
    /// comparisons need no special case.
    double effective_deadline(int r) const
    {
        const double d = requests_[r].deadline_s;
        return d > 0.0 ? d : kInf;
    }
    /// Strict EDF order: (effective deadline, request id) — a total
    /// order, so every tie is broken deterministically.
    bool edf_before(int a, int b) const
    {
        const double da = effective_deadline(a);
        const double db = effective_deadline(b);
        return da != db ? da < db : a < b;
    }
    /// Appends @p r to its priority class's prefill (@p prefill) or
    /// decode queue (slo off) or insert-sorts it EDF (slo on), so
    /// queue order IS claim order in both schedulers.
    void enqueue(int r, bool prefill);
    /// Whether @p mode lets @p r into the claimed batch.
    bool claim_eligible(int r, ClaimMode mode) const;
    /// Opens one fairness window: every tenant's deficit gains its
    /// quantum, capped at one quantum of saved-up credit (a long-idle
    /// tenant cannot hoard windows; a tenant in debt climbs out one
    /// window at a time).
    void replenish();
    /// The claim walk: fills @p members up to @p cap from @p hi (then
    /// @p lo, unless kHighOnly) in queue order. With slo a member must
    /// be eligible under @p mode and its tenant must hold positive
    /// deficit; windows replenish while slots stay unfilled and
    /// eligible work waits, so the claim is work-conserving. Each
    /// candidate that passes those gates goes to @p admit(r): true
    /// takes it (the step has done its per-member bookkeeping), false
    /// ends the whole claim — no later member, no fairness window.
    template <typename Admit>
    void claim(std::deque<int>& hi, std::deque<int>& lo, int cap,
               ClaimMode mode, std::vector<int>& members, Admit&& admit);
    /// Most urgent queued deadline carrier (EDF order) that beats
    /// @p thresh and still holds trigger budget; -1 when none.
    /// @p prefill reports whether it waits in a prefill queue. Reads
    /// trigger_heap_, dropping the stale entries it meets first.
    int urgent_trigger(double thresh, bool* prefill);
    /// Completion bookkeeping shared by every completion site:
    /// latency, and (slo) deadline lateness and per-tenant misses.
    void record_completion(int r);
    /// Borrows an empty member-list from the scratch pool (capacity
    /// retained from earlier iterations). Pool discipline instead of
    /// one shared buffer because a preemption nests a second
    /// iteration inside execute() while the victim's list is live.
    std::vector<int> acquire_scratch();
    /// Returns a borrowed list to the pool.
    void release_scratch(std::vector<int>&& v);
    /// begin/step/finish one program; steps watch for preemption when
    /// @p can_preempt. A run the engine memoized replays at once when
    /// it ends before the next watcher arrival.
    IterOutcome execute(std::shared_ptr<const sim::SimProgram> program,
                        bool can_preempt);
    /// Parks the running iteration, serves queued high-priority work
    /// for one iteration, resumes; returns the wall seconds consumed.
    double preempt_for_high();
    /// Shared per-iteration accounting (means are order-sensitive:
    /// this mirrors the plain serve() loop exactly). @p nested marks
    /// a preemption iteration, which must not size the residency
    /// budget — its working set (a mini batch) is not representative.
    void account(const IterOutcome& o, bool decode, bool nested);

    /// One prefill claim: the members in claim order and, parallel to
    /// them, the prompt tokens each ingests this iteration (the full
    /// prompt, its residual past a cached prefix, or one chunk) and the
    /// tokens it would have ingested with no prefix cached (what
    /// prefill_tokens_saved compares against); plus the stalls the
    /// claimed members' KV charges before the program runs.
    struct PrefillClaim {
        std::vector<int> members;
        std::vector<int> residuals;
        std::vector<int> fulls;
        int64_t prefix_stream = 0;  ///< spilled-prefix tokens fetched back.
        double migrate_stall = 0.0;  ///< router-priced interconnect stalls.
    };
    /// The per-member ingest step of a prefill claim: resolves the
    /// prefix ledger on a prompt's first claim, advances the chunk,
    /// grows and pins the private-tail KV, and records the member's
    /// token counts in @p c.
    void ingest_prompt(int r, PrefillClaim& c);
    /// Claims and runs one prefill iteration. Returns false — having
    /// run nothing — when a KV deferral ended the claim before it took
    /// anyone (the deferral is counted); never with @p force_admit.
    bool run_prefill_iteration(ClaimMode mode, bool interruptible,
                               bool force_admit = false);
    /// One decode iteration. kAll fills the persistent running batch
    /// and is preemptible; a nested preemption iteration (kHighOnly,
    /// kUrgent) claims a mini batch of its own while the victim is
    /// parked, and its survivors go back to their queues.
    void run_decode_iteration(ClaimMode mode);
    void finalize();

    /// A request's prompt length with the 0 = "full model sequence
    /// length" default resolved.
    int effective_prompt_len(int r) const
    {
        const int len = requests_[r].prompt_len;
        return len > 0 ? len : opts_.max_prompt_len;
    }

    // --- KV residency. Only kv_on_ allocates segments; with
    // --- kv_budget = 0 the pool stays empty, so the readers below
    // --- admit every prompt and add nothing.

    /// Per-core bytes of @p tokens tokens of KV state.
    uint64_t kv_per_core(int64_t tokens) const
    {
        const uint64_t cores =
            static_cast<uint64_t>(machine_.config().total_cores());
        return (tokens * opts_.kv_bytes_per_token + cores - 1) / cores;
    }

    /// Whether prompt @p r's KV can be admitted right now: it fits the
    /// budget next to the resident segments, or it could never fit at
    /// all (oversized segments are born spilled instead of deferred
    /// forever).
    bool kv_admits(int r) const
    {
        const uint64_t bytes = prompt_kv_need(r);
        return state_.kv_would_fit(bytes) || bytes > opts_.kv_budget;
    }

    /// kv_admits() for the head of the prefill queues (true when none
    /// waits) — the head-of-queue backpressure check.
    bool prefill_admissible() const;

    /// Prompt tokens the next claim of a prompt with @p remaining
    /// tokens left ingests: one chunk under chunking, else all of them.
    int chunk_of(int remaining) const
    {
        return chunk_on_ ? std::min(opts_.prefill_chunk, remaining)
                         : remaining;
    }

    /// Pins segment @p seg for the coming iteration on behalf of
    /// request @p r when it is resident and @p pinned (kv_pinned_ or
    /// prefix_pinned_) says @p r holds no pin on it yet.
    void pin_resident(int64_t seg, std::vector<bool>& pinned, int r)
    {
        if (!pinned[r] && state_.kv_resident(seg)) {
            state_.kv_pin(seg);
            pinned[r] = true;
        }
    }

    /// Releases the iteration pins @p r holds on its private tail and
    /// on its shared prefix.
    void kv_release_pins(int r);

    /// Appends @p tokens tokens to @p r's private-tail segment,
    /// allocating it on first use. Growth uses the cumulative per-core
    /// rounding, so the footprint never drifts from kv_per_core(tokens)
    /// however the tokens arrive.
    void kv_append(int r, int64_t tokens);

    /// Ensures every member of @p members has a resident, pinned KV
    /// segment where possible, allocating decode-phase arrivals'
    /// segments (their KV migrates in from HBM) and fetching spilled
    /// ones back, then charges the accumulated HBM stream time as an
    /// idle-clock stall before the iteration.
    void kv_prepare(const std::vector<int>& members);

    /// Charges @p stream_tokens tokens of KV streamed from HBM, then
    /// @p migrate_stall seconds of cross-chip KV migration (the
    /// router-priced interconnect transfer a Request carries), as
    /// idle-clock stalls before an iteration (each a no-op for 0).
    void kv_charge(int64_t stream_tokens, double migrate_stall);

    /// Post-iteration bookkeeping for one member: releases its pin
    /// and either grows the segment by the decoded token or frees it
    /// (@p completed).
    void kv_retire(int r, bool completed);

    // --- prefix cache. Driven by Request::prefix_id: an untagged
    // --- request (the only kind without prefix sharing) never
    // --- touches it.

    /// Engine pool id of prefix population entry @p pid — negative,
    /// so the shared class never collides with per-request ids.
    static int64_t prefix_kv_id(int pid)
    {
        return -static_cast<int64_t>(pid) - 1;
    }

    /// Longest-match lookup: tokens of request @p r's prompt the
    /// cached prefix covers right now — the shorter of the request's
    /// own prefix span and the canonical segment the first carrier
    /// seeded. 0 = miss (or untagged request).
    int64_t prefix_covered(int r) const
    {
        const int pid = requests_[r].prefix_id;
        if (pid < 0 || prefix_tokens_[pid] == 0) {
            return 0;
        }
        return std::min(static_cast<int64_t>(requests_[r].prefix_len),
                        prefix_tokens_[pid]);
    }

    /// KV bytes prompt @p r must newly admit: its private tail, plus
    /// its prefix segment when that is spilled (hit) or not yet seeded
    /// (miss). The single source of truth behind kv_admits(), so
    /// backpressure and claiming can never disagree.
    uint64_t prompt_kv_need(int r) const;

    /// Length/KV-aware prefill order under chunking: starved prompts
    /// first (the bounded fairness window), then (effective deadline,
    /// remaining length, id) — a total order, so each prompt has one
    /// position. Every key field is fixed while the prompt waits.
    bool pre_before(int a, int b) const;

    /// Moves every prompt the last prefill claim pushed across the
    /// starvation cap into the starved prefix of its queue. Chunking
    /// only.
    void promote_starved();

    /// KV-locality decode claim: fills free batch slots with
    /// KV-resident requests only; every spilled request passed over
    /// while slots remained counts one kv_locality_skips.
    void claim_kv_resident(std::deque<int>& hi, std::deque<int>& lo,
                           int cap, std::vector<int>& members);

    const sim::Machine& machine_;
    const ServerOptions& opts_;
    const std::vector<Request>& requests_;
    const Server::PrefillProgramSource& prefill_src_;
    const Server::ProgramSource& decode_src_;
    sim::EngineState state_;

    std::vector<int> running_;  ///< decode batch (request indices).
    std::deque<int> pre_hi_, pre_lo_, dec_hi_, dec_lo_;
    std::vector<int> tokens_left_;
    std::vector<double> latencies_;
    std::vector<double> ttfts_;
    int next_arrival_ = 0;
    int next_high_idx_ = 0;
    int completed_ = 0;
    double now_ = 0.0;
    double next_high_arrival_ = kInf;

    ServingReport rep_;
    bool budget_set_ = false;
    util::WeightedMean depth_mean_;
    util::WeightedMean hbm_mean_;
    util::WeightedMean noc_mean_;
    double steady_preload_sum_ = 0.0;
    int steady_iterations_ = 0;
    /// Prefill iteration counts, sorted by (prompt_len bucket, batch
    /// bucket) — the grid is tiny, so a flat sorted vector beats a
    /// node-based map on the per-iteration increment and reads out in
    /// the same ascending order the report expects.
    std::vector<ServingReport::PrefillBucket> bucket_iters_;
    /// Scratch pool for per-iteration member lists (see
    /// acquire_scratch).
    std::vector<std::vector<int>> scratch_pool_;

    /// KV modeling on (ServerOptions::kv_budget > 0).
    bool kv_on_ = false;
    /// Per request: tokens its KV segment covers (-1 = no segment).
    /// With prefix sharing this is the *private tail* only — the
    /// shared prefix's tokens live in the refcounted prefix segment.
    std::vector<int64_t> kv_tokens_;
    /// Per request: this run holds a kv_pin on the segment.
    std::vector<bool> kv_pinned_;
    util::WeightedMean kv_mean_;

    /// Cached prefix population: tokens of the seeded shared segment
    /// per prefix id, 0 while unseeded.
    std::vector<int64_t> prefix_tokens_;
    /// Per request: prefix id it holds a kv_share on (-1 = none).
    std::vector<int> prefix_share_;
    /// Per request: this run holds a kv_pin on its shared prefix.
    std::vector<bool> prefix_pinned_;

    /// SLO scheduling on (ServerOptions::slo): EDF queue order, the
    /// deficit gate and tenant accounting. Without it no request
    /// carries a deadline, so the deadline members below stay empty.
    bool slo_on_ = false;
    /// Whether refresh_next_high() also watches deadline carriers:
    /// slo_on_ with a positive preemption budget.
    bool watch_deadlines_ = false;
    /// Per tenant: deficit-round-robin token credit. A claim needs
    /// positive deficit; execution charges actual tokens, so a large
    /// prompt can push a tenant into debt it repays over windows.
    std::vector<double> deficit_;
    /// Per tenant: tokens granted per fairness window (shares scaled
    /// to max_batch + max_prompt_len).
    std::vector<double> quantum_;
    /// Per tenant: work tokens executed (prompt residuals + decode).
    std::vector<int64_t> tenant_tokens_;
    std::vector<int> tenant_requests_;
    std::vector<int> tenant_deadline_reqs_;
    std::vector<int> tenant_deadline_miss_;
    /// Per-completion lateness (>= 0 seconds), deadline carriers only.
    std::vector<double> latenesses_;
    /// Per request: deadline preemptions it may still trigger.
    std::vector<int> preempt_left_;
    /// (deadline, request) of every deadline carrier enqueued with
    /// trigger budget while watch_deadlines_, EDF-first. Entries of
    /// requests that left the queues or spent their budget are stale;
    /// urgent_trigger() drops them when they surface.
    std::priority_queue<std::pair<double, int>,
                        std::vector<std::pair<double, int>>,
                        std::greater<>>
        trigger_heap_;
    int64_t fairness_windows_ = 0;
    int deadline_preemptions_ = 0;
    /// Min effective deadline across the currently executing
    /// iteration's members (kInf when none carry one) — the bar an
    /// urgent arrival must beat to preempt it.
    double iter_min_deadline_ = kInf;
    /// Deadline a kUrgent claim must beat to ride along (set to the
    /// preempted victim's min deadline for the nested iteration).
    double urgent_thresh_ = kInf;

    /// Chunked prefill on (ServerOptions::prefill_chunk > 0): the
    /// chunk split and the length-aware queue order. Without it no
    /// prompt is ever part-ingested or in starve_fifo_, so the members
    /// below never change claim order.
    bool chunk_on_ = false;
    /// Claim passes a waiting prompt may be passed over before the
    /// bounded fairness window moves it to the queue head — the cap
    /// that keeps length-aware claiming from starving giants.
    static constexpr int kChunkStarveLimit = 8;
    /// Per request: prompt tokens still to ingest (-1 = not yet
    /// claimed; the first chunk resolves the prefix residual).
    std::vector<int> pre_left_;
    /// Per request: ingest tokens left that append no private-tail KV
    /// (the unseeded span of a missed prefix, ingested first — its KV
    /// lives in the prefix segment the first chunk seeded whole).
    std::vector<int> tail_skip_left_;
    /// Prefill claims taken so far: the clock starvation is measured
    /// on. A waiting prompt has been passed over by every claim since
    /// its epoch.
    int64_t prefill_claims_ = 0;
    /// Per request: prefill_claims_ when it last entered a prefill
    /// queue. While it waits there it is starved once
    /// prefill_claims_ - epoch >= kChunkStarveLimit.
    std::vector<int64_t> pre_epoch_;
    /// Per request: the starved bit pre_before orders by. Written only
    /// while the prompt is out of its queue, so queue order never
    /// shifts under the queue.
    std::vector<char> pre_starved_;
    /// (epoch, request) per prefill enqueue, in enqueue order: prompts
    /// cross the cap in this order, so the crossers sit at the front.
    /// Entries of prompts claimed since are stale and dropped there.
    std::deque<std::pair<int64_t, int>> starve_fifo_;
    /// A prefill iteration re-queued a partially-ingested prompt: the
    /// next boundary yields one decode iteration if decode work waits.
    bool chunk_yield_ = false;
    /// Per request: the queue class it waits in. Set by enqueue(),
    /// cleared by the claim walks that take it.
    enum class Waiting : char { kNone, kPrefill, kDecode };
    std::vector<Waiting> waiting_;
};

void
DisaggRun::admit()
{
    const int n = total_requests();
    while (next_arrival_ < n &&
           requests_[next_arrival_].arrival <= now_) {
        const int r = next_arrival_++;
        enqueue(r, requests_[r].phase == Phase::kPrefill);
    }
    refresh_next_high();
}

void
DisaggRun::refresh_next_high()
{
    // next_high_idx_ only moves forward (next_arrival_ is monotone),
    // so the whole serve scans each request once — O(1) amortized.
    if (next_high_idx_ < next_arrival_) {
        next_high_idx_ = next_arrival_;
    }
    while (next_high_idx_ < total_requests() &&
           requests_[next_high_idx_].priority != Priority::kHigh &&
           !(watch_deadlines_ &&
             requests_[next_high_idx_].deadline_s > 0.0)) {
        ++next_high_idx_;
    }
    next_high_arrival_ = next_high_idx_ < total_requests()
                             ? requests_[next_high_idx_].arrival
                             : kInf;
}

void
DisaggRun::enqueue(int r, bool prefill)
{
    const bool high = requests_[r].priority == Priority::kHigh;
    std::deque<int>& q =
        prefill ? (high ? pre_hi_ : pre_lo_) : (high ? dec_hi_ : dec_lo_);
    waiting_[r] = prefill ? Waiting::kPrefill : Waiting::kDecode;
    if (watch_deadlines_ && requests_[r].deadline_s > 0.0 &&
        preempt_left_[r] > 0) {
        trigger_heap_.emplace(requests_[r].deadline_s, r);
    }
    if (prefill && chunk_on_) {
        // Enters unstarved at its claim-order position;
        // promote_starved() moves it once the cap passes.
        pre_epoch_[r] = prefill_claims_;
        pre_starved_[r] = false;
        starve_fifo_.emplace_back(prefill_claims_, r);
        q.insert(std::upper_bound(q.begin(), q.end(), r,
                                  [this](int a, int b) {
                                      return pre_before(a, b);
                                  }),
                 r);
        return;
    }
    if (!slo_on_) {
        q.push_back(r);
        return;
    }
    q.insert(std::upper_bound(q.begin(), q.end(), r,
                              [this](int a, int b) {
                                  return edf_before(a, b);
                              }),
             r);
}

bool
DisaggRun::claim_eligible(int r, ClaimMode mode) const
{
    switch (mode) {
    case ClaimMode::kAll:
        return true;
    case ClaimMode::kHighOnly:
        return requests_[r].priority == Priority::kHigh;
    case ClaimMode::kUrgent:
        return requests_[r].priority == Priority::kHigh ||
               (requests_[r].deadline_s > 0.0 &&
                requests_[r].deadline_s < urgent_thresh_);
    }
    return false;
}

void
DisaggRun::replenish()
{
    ++fairness_windows_;
    const int t = static_cast<int>(quantum_.size());
    for (int i = 0; i < t; ++i) {
        deficit_[i] = std::min(deficit_[i] + quantum_[i], quantum_[i]);
    }
}

template <typename Admit>
void
DisaggRun::claim(std::deque<int>& hi, std::deque<int>& lo, int cap,
                 ClaimMode mode, std::vector<int>& members, Admit&& admit)
{
    bool stopped = false;
    auto full = [&] { return static_cast<int>(members.size()) >= cap; };
    // Deficit-round-robin in queue order. A pass walks a queue
    // claiming eligible members whose tenant holds positive deficit
    // (slo only); when slots remain and eligible work waits, a fairness
    // window replenishes every deficit and the pass repeats —
    // work-conserving: shares decide claim ORDER under contention,
    // they never idle the chip. (A pass takes every claimable member,
    // and deficits only change at execution, so repeating a pass
    // without a window would take nobody.) Without slo every member is
    // eligible, so one pass takes the queue prefix and no window opens.
    auto pass = [&](std::deque<int>& q) {
        for (auto it = q.begin(); !stopped && it != q.end() && !full();) {
            const int r = *it;
            if (!claim_eligible(r, mode) ||
                (slo_on_ && deficit_[requests_[r].tenant] <= 0.0)) {
                ++it;
            } else if (!admit(r)) {
                stopped = true;
            } else {
                members.push_back(r);
                waiting_[r] = Waiting::kNone;
                it = q.erase(it);
            }
        }
    };
    auto eligible_waiting = [&](const std::deque<int>& q) {
        for (int r : q) {
            if (claim_eligible(r, mode)) {
                return true;
            }
        }
        return false;
    };
    for (;;) {
        pass(hi);
        if (mode != ClaimMode::kHighOnly) {
            pass(lo);
        }
        if (stopped || full()) {
            break;
        }
        const bool waiting =
            eligible_waiting(hi) ||
            (mode != ClaimMode::kHighOnly && eligible_waiting(lo));
        if (!waiting) {
            break;
        }
        // Slots free, eligible work blocked on deficit alone: open a
        // window. Progress is guaranteed — every window lifts each
        // blocked tenant's deficit by its quantum, so within finitely
        // many windows the next pass claims at least one.
        replenish();
    }
}

bool
DisaggRun::pre_before(int a, int b) const
{
    if (pre_starved_[a] != pre_starved_[b]) {
        return pre_starved_[a];
    }
    const double da = effective_deadline(a);
    const double db = effective_deadline(b);
    if (da != db) {
        return da < db;
    }
    const int la =
        pre_left_[a] >= 0 ? pre_left_[a] : effective_prompt_len(a);
    const int lb =
        pre_left_[b] >= 0 ? pre_left_[b] : effective_prompt_len(b);
    if (la != lb) {
        return la < lb;
    }
    return a < b;
}

void
DisaggRun::promote_starved()
{
    auto cmp = [this](int a, int b) { return pre_before(a, b); };
    while (!starve_fifo_.empty() &&
           prefill_claims_ - starve_fifo_.front().first >=
               kChunkStarveLimit) {
        const auto [epoch, r] = starve_fifo_.front();
        starve_fifo_.pop_front();
        if (waiting_[r] != Waiting::kPrefill || pre_epoch_[r] != epoch) {
            continue;  // claimed since it was queued
        }
        std::deque<int>& q =
            requests_[r].priority == Priority::kHigh ? pre_hi_ : pre_lo_;
        q.erase(std::lower_bound(q.begin(), q.end(), r, cmp));
        pre_starved_[r] = true;
        q.insert(std::upper_bound(q.begin(), q.end(), r, cmp), r);
    }
}

void
DisaggRun::claim_kv_resident(std::deque<int>& hi, std::deque<int>& lo,
                             int cap, std::vector<int>& members)
{
    // Residents only; deficit-blocked tenants are skipped without a
    // replenish window (the full claim() fallback opens windows when
    // nothing resident could run at all).
    auto pass = [&](std::deque<int>& q) {
        for (auto it = q.begin();
             it != q.end() && static_cast<int>(members.size()) < cap;) {
            const int r = *it;
            if (slo_on_ && deficit_[requests_[r].tenant] <= 0.0) {
                ++it;
                continue;
            }
            if (kv_tokens_[r] < 0 || !state_.kv_resident(r)) {
                // Spilled (or not yet materialized here): passed over
                // while a resident request could still fill the slot.
                ++rep_.kv_locality_skips;
                ++it;
                continue;
            }
            members.push_back(r);
            waiting_[r] = Waiting::kNone;
            it = q.erase(it);
        }
    };
    pass(hi);
    pass(lo);
}

int
DisaggRun::urgent_trigger(double thresh, bool* prefill)
{
    // The first live entry is the EDF-first waiting carrier with
    // budget, so no queue is scanned.
    while (!trigger_heap_.empty()) {
        const auto [d, r] = trigger_heap_.top();
        if (waiting_[r] != Waiting::kNone && preempt_left_[r] > 0) {
            *prefill = waiting_[r] == Waiting::kPrefill;
            return d < thresh ? r : -1;
        }
        trigger_heap_.pop();
    }
    return -1;
}

void
DisaggRun::record_completion(int r)
{
    latencies_[r] = now_ - requests_[r].arrival;
    ++completed_;
    if (requests_[r].deadline_s > 0.0) {
        const double late = now_ - requests_[r].deadline_s;
        latenesses_.push_back(std::max(0.0, late));
        if (late > 0.0) {
            ++tenant_deadline_miss_[requests_[r].tenant];
        }
    }
}

std::vector<int>
DisaggRun::acquire_scratch()
{
    if (scratch_pool_.empty()) {
        return {};
    }
    std::vector<int> v = std::move(scratch_pool_.back());
    scratch_pool_.pop_back();
    v.clear();
    return v;
}

void
DisaggRun::release_scratch(std::vector<int>&& v)
{
    scratch_pool_.push_back(std::move(v));
}

uint64_t
DisaggRun::prompt_kv_need(int r) const
{
    if (pre_left_[r] >= 0) {
        // A chunked prompt past its first chunk: admission gated on
        // the full need at the first chunk, so only the next chunk's
        // private-tail growth is new KV here.
        const int ingest = chunk_of(pre_left_[r]);
        const int skip = std::min(tail_skip_left_[r], ingest);
        const int64_t tail_before =
            kv_tokens_[r] >= 0 ? kv_tokens_[r] : 0;
        return kv_per_core(tail_before + (ingest - skip)) -
               kv_per_core(tail_before);
    }
    const int64_t len = effective_prompt_len(r);
    const int pid = requests_[r].prefix_id;
    if (pid < 0) {
        return kv_per_core(len);
    }
    const int64_t covered = prefix_covered(r);
    if (covered > 0) {
        // Hit: only the residual tail is new KV; a spilled prefix
        // additionally has to stream back in.
        uint64_t bytes = kv_per_core(len - covered);
        const int64_t pseg = prefix_kv_id(pid);
        if (!state_.kv_resident(pseg)) {
            bytes += state_.kv_segment_bytes(pseg);
        }
        return bytes;
    }
    // Miss: this prompt seeds the prefix segment next to its tail.
    const int64_t plen = requests_[r].prefix_len;
    return kv_per_core(len - plen) + kv_per_core(plen);
}

bool
DisaggRun::prefill_admissible() const
{
    const std::deque<int>& q = !pre_hi_.empty() ? pre_hi_ : pre_lo_;
    return q.empty() || kv_admits(q.front());
}

void
DisaggRun::kv_prepare(const std::vector<int>& members)
{
    int64_t stream_tokens = 0;
    double migrate_stall = 0.0;
    for (int r : members) {
        if (prefix_share_[r] >= 0) {
            // The shared prefix is read every iteration. It is
            // brought back (and pinned) before the private tail, so
            // the tail's own fetch can never evict it — eviction of a
            // shared prefix is priced as a refetch here for every
            // sharer that next consumes it.
            const int64_t pseg = prefix_kv_id(prefix_share_[r]);
            if (!state_.kv_resident(pseg)) {
                stream_tokens += prefix_tokens_[prefix_share_[r]];
                ++rep_.kv_refetches;
                state_.kv_fetch(pseg);
            }
            pin_resident(pseg, prefix_pinned_, r);
        }
        if (kv_tokens_[r] < 0) {
            // Decode-phase arrival: its KV state exists elsewhere.
            // Untagged, it migrates in over local HBM (priced as a
            // refetch); tagged by the cluster router, it arrives over
            // the chip-to-chip interconnect and charges the carried
            // transfer stall instead.
            const int64_t ctx = effective_prompt_len(r);
            kv_tokens_[r] = ctx;
            if (requests_[r].kv_migrate_tokens > 0) {
                ++rep_.kv_migrations;
                rep_.kv_migrated_tokens += requests_[r].kv_migrate_tokens;
                migrate_stall += requests_[r].kv_migrate_stall;
            } else {
                stream_tokens += ctx;
                ++rep_.kv_refetches;
            }
            state_.kv_alloc(r, kv_per_core(ctx));
        } else if (!state_.kv_resident(r)) {
            // Spilled under budget/pressure: stream it back.
            stream_tokens += kv_tokens_[r];
            ++rep_.kv_refetches;
            state_.kv_fetch(r);
        }
        pin_resident(r, kv_pinned_, r);
    }
    kv_charge(stream_tokens, migrate_stall);
}

void
DisaggRun::kv_charge(int64_t stream_tokens, double migrate_stall)
{
    // Each stall is a pure clock advance before the iteration (the
    // engine is idle) whose window still enters every time-weighted
    // mean, the fabric quiet throughout.
    auto idle = [&](double dt, double hbm_util) {
        depth_mean_.add(dt, static_cast<double>(waiting_total()));
        kv_mean_.add(dt, static_cast<double>(state_.kv_bytes()));
        hbm_mean_.add(dt, hbm_util);
        noc_mean_.add(dt, 0.0);
        state_.run_to(state_.now() + dt);
        now_ = state_.now();
    };
    if (stream_tokens > 0) {
        // One serial HBM transfer: HBM saturated for its transfer
        // part.
        const hw::ChipConfig& cfg = machine_.config();
        const double stream =
            static_cast<double>(stream_tokens) *
            static_cast<double>(opts_.kv_bytes_per_token) /
            cfg.hbm_total_bw;
        const double dt = cfg.hbm_access_latency_s + stream;
        rep_.kv_stall += dt;
        idle(dt, stream / dt);
    }
    if (migrate_stall > 0.0) {
        // The segment lands over the chip-to-chip wire: local HBM
        // carries none of it — the wire is the priced resource, and
        // the router already folded its latency + bandwidth into the
        // stall.
        rep_.kv_migration_stall += migrate_stall;
        idle(migrate_stall, 0.0);
    }
}

void
DisaggRun::kv_release_pins(int r)
{
    if (kv_pinned_[r]) {
        state_.kv_unpin(r);
        kv_pinned_[r] = false;
    }
    if (prefix_pinned_[r]) {
        state_.kv_unpin(prefix_kv_id(prefix_share_[r]));
        prefix_pinned_[r] = false;
    }
}

void
DisaggRun::kv_append(int r, int64_t tokens)
{
    if (kv_tokens_[r] < 0) {
        kv_tokens_[r] = tokens;
        state_.kv_alloc(r, kv_per_core(tokens));
        return;
    }
    const uint64_t before = kv_per_core(kv_tokens_[r]);
    kv_tokens_[r] += tokens;
    state_.kv_grow(r, kv_per_core(kv_tokens_[r]) - before);
}

void
DisaggRun::kv_retire(int r, bool completed)
{
    kv_release_pins(r);
    if (!completed) {
        kv_append(r, 1);  // the decoded token
        return;
    }
    if (prefix_share_[r] >= 0) {
        // Drop the share; the segment itself stays cached for future
        // carriers of the prefix (that is the cache).
        state_.kv_release(prefix_kv_id(prefix_share_[r]));
        prefix_share_[r] = -1;
    }
    state_.kv_free(r);
    kv_tokens_[r] = -1;
}

DisaggRun::IterOutcome
DisaggRun::execute(std::shared_ptr<const sim::SimProgram> program,
                   bool can_preempt)
{
    double start = now_;
    double interrupted = 0.0;
    const bool watch = can_preempt && opts_.preempt;
    state_.begin_memo(std::move(program), watch ? next_high_arrival_ : kInf);
    while (state_.step()) {
        if (watch && next_high_arrival_ <= state_.now()) {
            interrupted += preempt_for_high();
        }
    }
    IterOutcome o;
    o.r = state_.finish();
    now_ = state_.now();
    o.duration = now_ - start - interrupted;
    return o;
}

double
DisaggRun::preempt_for_high()
{
    sim::EngineState::Parked parked = state_.park();
    const double park_t = state_.now();
    now_ = park_t;
    admit();  // the triggering request joins its queue
    // The nested iteration overwrites iter_min_deadline_ /
    // urgent_thresh_; both belong to the parked victim, so save and
    // restore them around the branch (the victim's own watcher keeps
    // firing after resume).
    const double victim_min = iter_min_deadline_;
    const double saved_thresh = urgent_thresh_;
    if (!pre_hi_.empty()) {
        ++rep_.preemptions;
        // A high-priority prompt jumps KV backpressure too: its
        // segment is force-admitted (spilling unpinned segments, or
        // born spilled) rather than deferred — preemption exists to
        // cut its latency, and the spill cost is now modeled.
        run_prefill_iteration(ClaimMode::kHighOnly,
                              /*interruptible=*/false,
                              /*force_admit=*/true);
    } else if (!dec_hi_.empty()) {
        ++rep_.preemptions;
        run_decode_iteration(ClaimMode::kHighOnly);
    } else {
        // No high-priority work: a deadline carrier may still have
        // tripped the watcher. It preempts only when it is more
        // urgent than every member of the running iteration AND still
        // holds trigger budget; riders sharing the nested iteration
        // are free (only the trigger pays).
        bool trig_pre = false;
        const int trig = urgent_trigger(victim_min, &trig_pre);
        if (trig >= 0) {
            --preempt_left_[trig];
            ++rep_.preemptions;
            ++deadline_preemptions_;
            urgent_thresh_ = victim_min;
            if (trig_pre) {
                run_prefill_iteration(ClaimMode::kUrgent,
                                      /*interruptible=*/false,
                                      /*force_admit=*/true);
            } else {
                run_decode_iteration(ClaimMode::kUrgent);
            }
        }
        // A watcher trip with no trigger is a harmless exact
        // park/resume: no iteration ran, the engine clock is where
        // park() left it.
    }
    iter_min_deadline_ = victim_min;
    urgent_thresh_ = saved_thresh;
    state_.resume(std::move(parked));
    return state_.now() - park_t;
}

void
DisaggRun::account(const IterOutcome& o, bool decode, bool nested)
{
    ++rep_.iterations;
    // The residency budget is the SRAM slack left by the first cold
    // full iteration's working set. A nested preemption iteration can
    // be accounted before its victim: skip it here — a mini batch's
    // small peak would oversize the budget (and a nested prefill
    // could zero it for good).
    if (!budget_set_ && !nested && opts_.keep_resident) {
        budget_set_ = true;
        uint64_t usable = machine_.config().usable_sram_per_core();
        state_.set_residency_budget(usable > o.r.peak_sram_per_core
                                        ? usable - o.r.peak_sram_per_core
                                        : 0);
    }
    if (decode) {
        ++rep_.decode_iterations;
        if (rep_.decode_iterations == 1) {
            rep_.first_decode_preload = o.r.preload_only;
        } else {
            steady_preload_sum_ += o.r.preload_only;
            ++steady_iterations_;
        }
    } else {
        ++rep_.prefill_iterations;
    }
    hbm_mean_.add(o.duration, o.r.hbm_util);
    noc_mean_.add(o.duration, o.r.noc_util);
    depth_mean_.add(o.duration, static_cast<double>(waiting_total()));
    kv_mean_.add(o.duration, static_cast<double>(state_.kv_bytes()));
    rep_.peak_sram_per_core =
        std::max(rep_.peak_sram_per_core, o.r.peak_sram_per_core);
    rep_.memory_exceeded |= o.r.memory_exceeded;
}

void
DisaggRun::ingest_prompt(int r, PrefillClaim& c)
{
    const int len = effective_prompt_len(r);
    const bool first = pre_left_[r] < 0;
    int remaining = pre_left_[r];
    if (first) {
        // With prefix sharing, a prompt whose prefix id matches a
        // cached segment is a hit: it shares the segment (refcount)
        // and skips the covered tokens — only the residual reaches
        // prefill, and only its private tail is new KV. The first
        // carrier of a prefix seeds the shared segment next to its
        // tail; a spilled prefix streams back before the iteration,
        // priced like any KV refetch.
        int tail = len;
        remaining = len;
        const int pid = requests_[r].prefix_id;
        if (pid >= 0) {
            const int64_t pseg = prefix_kv_id(pid);
            const int covered = static_cast<int>(prefix_covered(r));
            const int plen = requests_[r].prefix_len;
            if (covered > 0) {
                ++rep_.prefix_hits;
                rep_.prefix_hit_tokens += covered;
                remaining = tail = len - covered;
                if (!state_.kv_resident(pseg)) {
                    c.prefix_stream += prefix_tokens_[pid];
                    ++rep_.kv_refetches;
                    state_.kv_fetch(pseg);
                }
            } else {
                // Miss: seed the shared segment at the request's full
                // prefix span. Migration is a miss whose segment
                // arrives over the cluster interconnect from the chip
                // that holds it: the covered tokens skip prefill like
                // a hit, and the wire transfer (priced by the router)
                // stalls this chip instead of a re-prefill.
                prefix_tokens_[pid] = plen;
                tail = len - plen;
                if (requests_[r].kv_migrate_tokens > 0) {
                    ++rep_.prefix_hits;
                    rep_.prefix_hit_tokens += plen;
                    ++rep_.kv_migrations;
                    rep_.kv_migrated_tokens += plen;
                    c.migrate_stall += requests_[r].kv_migrate_stall;
                    remaining = tail;
                }
                state_.kv_alloc(pseg, kv_per_core(plen));
            }
            state_.kv_share(pseg);
            prefix_share_[r] = pid;
            // Pin the prefix for this iteration before the tail
            // allocates, so the tail cannot evict it.
            pin_resident(pseg, prefix_pinned_, r);
        }
        // The unseeded span of a missed prefix is ingested first and
        // appends no private-tail KV: it lives in the prefix segment
        // seeded whole above.
        tail_skip_left_[r] = remaining - tail;
    }
    const int ingest = chunk_of(remaining);
    if (chunk_on_) {
        if (first && remaining > ingest) {
            ++rep_.chunked_prompts;
        }
        pre_left_[r] = remaining - ingest;
        ++rep_.prefill_chunks;
    }
    if (kv_on_) {
        // The private tail grows chunk by chunk (admission gated on
        // the full need at the first chunk; growth spills under
        // pressure instead of deferring, so mid-prompt chunks cannot
        // deadlock on backpressure).
        const int skip = std::min(tail_skip_left_[r], ingest);
        tail_skip_left_[r] -= skip;
        if (ingest > skip) {
            kv_append(r, ingest - skip);
            pin_resident(r, kv_pinned_, r);
        }
    }
    c.residuals.push_back(ingest);
    c.fulls.push_back(first ? chunk_of(len) : ingest);
}

bool
DisaggRun::run_prefill_iteration(ClaimMode mode, bool interruptible,
                                 bool force_admit)
{
    PrefillClaim c{acquire_scratch(), acquire_scratch(), acquire_scratch()};
    auto release = [&] {
        release_scratch(std::move(c.fulls));
        release_scratch(std::move(c.residuals));
        release_scratch(std::move(c.members));
    };
    // KV admission: each prompt must fit its KV next to what is
    // already resident. The first one that does not ends the claim —
    // admitting later ones would starve it — and counts one deferral.
    // Oversized prompts pass (born spilled), and force_admit pushes
    // the first claimable prompt through the same way when deferring
    // would leave the server with no other work.
    bool deferred = false;
    claim(pre_hi_, pre_lo_, opts_.max_prefill_batch, mode, c.members,
          [&](int r) {
              if (!kv_admits(r) &&
                  !(force_admit && c.members.empty())) {
                  ++rep_.deferred_admissions;
                  deferred = true;
                  return false;
              }
              ingest_prompt(r, c);
              return true;
          });
    if (deferred && c.members.empty()) {
        release();
        return false;
    }
    util::check(!c.members.empty(),
                "Server: a prefill iteration claimed no prompt");
    // Bounded fairness window: every prompt still waiting moves one
    // pass closer to starved status (and with it, the head of the claim
    // order). Unchunked, starve_fifo_ stays empty.
    ++prefill_claims_;
    promote_starved();
    rep_.peak_queue_depth = std::max(
        rep_.peak_queue_depth, static_cast<int>(waiting_total()));
    kv_charge(c.prefix_stream, c.migrate_stall);
    int bucket = batch_bucket(static_cast<int>(c.members.size()),
                              opts_.max_prefill_batch);
    // The claimed prompts share one program: the smallest length
    // bucket covering the longest of them — of the tokens actually
    // ingested, i.e. residual lengths once cached prefixes are
    // skipped. Everything shorter is padded up to the bucket — the
    // waste the report tracks.
    int need_len = 1;
    int need_len_full = 1;
    int64_t actual_tokens = 0;
    for (size_t i = 0; i < c.members.size(); ++i) {
        const int res = c.residuals[i];
        need_len = std::max(need_len, res);
        need_len_full = std::max(need_len_full, c.fulls[i]);
        actual_tokens += res;
        if (slo_on_) {
            // Fairness charges actual ingested work: a long prompt
            // can push its tenant into deficit debt repaid over the
            // following windows.
            const int t = requests_[c.members[i]].tenant;
            tenant_tokens_[t] += res;
            deficit_[t] -= static_cast<double>(res);
        }
    }
    int len_bucket = pick_bucket(opts_.prompt_buckets, need_len);
    // Program-level savings: the length bucket these claims would have
    // needed at their full prompt lengths, vs the residual bucket
    // actually compiled (the same bucket when no prefix was cached).
    const int full_bucket = pick_bucket(opts_.prompt_buckets, need_len_full);
    rep_.prefill_tokens_saved +=
        static_cast<int64_t>(bucket) * (full_bucket - len_bucket);
    std::shared_ptr<const sim::SimProgram> program =
        prefill_src_ ? prefill_src_(bucket, len_bucket) : nullptr;
    util::check(program != nullptr,
                "Server: prefill ProgramSource returned no program");
    rep_.prompt_tokens += actual_tokens;
    rep_.padded_prompt_tokens +=
        static_cast<int64_t>(bucket) * len_bucket - actual_tokens;
    {
        auto pos = std::lower_bound(
            bucket_iters_.begin(), bucket_iters_.end(),
            std::pair<int, int>(len_bucket, bucket),
            [](const ServingReport::PrefillBucket& b,
               const std::pair<int, int>& key) {
                return std::pair<int, int>(b.prompt_len, b.batch) < key;
            });
        if (pos == bucket_iters_.end() ||
            pos->prompt_len != len_bucket || pos->batch != bucket) {
            ServingReport::PrefillBucket b;
            b.prompt_len = len_bucket;
            b.batch = bucket;
            pos = bucket_iters_.insert(pos, b);
        }
        ++pos->iterations;
    }

    bool protected_iter = false;
    iter_min_deadline_ = kInf;
    for (int r : c.members) {
        protected_iter |= requests_[r].priority == Priority::kHigh;
        iter_min_deadline_ =
            std::min(iter_min_deadline_, effective_deadline(r));
    }
    IterOutcome o =
        execute(std::move(program), interruptible && !protected_iter);
    account(o, /*decode=*/false, /*nested=*/mode != ClaimMode::kAll);

    // Prompt ingested: record TTFT and hand the request to the decode
    // class (high-priority members keep their class). The KV segment
    // (already sized to the prompt) stays for the decode phase; only
    // the iteration's pins are released (the prefix share is held
    // until the request completes). A prefill-only request
    // (decode_tokens == 0 — the prefill half of a cluster tier split)
    // completes here instead: its KV ships onward over the
    // interconnect, so the local segment frees and the prefix share
    // drops immediately.
    for (int r : c.members) {
        kv_release_pins(r);
        if (pre_left_[r] > 0) {
            // More chunks to ingest: back to the prefill queue (the
            // prefix share and the accumulated tail KV stay), no TTFT
            // yet — it fires when the final chunk retires. The next
            // iteration boundary yields one decode iteration if
            // decode work waits, so decode never stalls behind the
            // whole prompt.
            chunk_yield_ = true;
            enqueue(r, /*prefill=*/true);
            continue;
        }
        ttfts_.push_back(now_ - requests_[r].arrival);
        if (tokens_left_[r] == 0) {
            if (kv_on_) {
                kv_retire(r, /*completed=*/true);
            }
            record_completion(r);
            continue;
        }
        enqueue(r, /*prefill=*/false);
    }
    release();
    return true;
}

void
DisaggRun::run_decode_iteration(ClaimMode mode)
{
    // Iteration-level batching: waiting requests claim free batch
    // slots at the iteration boundary, high-priority first. claim()
    // caps the list's total size, so appending to running_ directly
    // fills exactly the free batch slots. A nested iteration fills a
    // mini batch instead: high-priority members only (kHighOnly), or
    // also deadline carriers beating the victim's bar (kUrgent).
    const bool nested = mode != ClaimMode::kAll;
    std::vector<int> mini;
    if (nested) {
        mini = acquire_scratch();
    }
    std::vector<int>& batch = nested ? mini : running_;
    auto take_any = [](int) { return true; };
    if (!nested && opts_.kv_locality) {
        // Locality-aware membership: free slots fill with KV-resident
        // requests first; spilled requests run only when nothing
        // resident can (each pass-over counts one kv_locality_skips),
        // so a hot batch never thrashes its SRAM residency streaming
        // a cold segment back mid-flight.
        claim_kv_resident(dec_hi_, dec_lo_, opts_.max_batch, batch);
        if (batch.empty()) {
            claim(dec_hi_, dec_lo_, opts_.max_batch, mode, batch,
                  take_any);
        }
    } else {
        claim(dec_hi_, dec_lo_, opts_.max_batch, mode, batch, take_any);
    }
    rep_.peak_queue_depth = std::max(
        rep_.peak_queue_depth, static_cast<int>(waiting_total()));

    int bucket =
        batch_bucket(static_cast<int>(batch.size()), opts_.max_batch);
    std::shared_ptr<const sim::SimProgram> program =
        decode_src_ ? decode_src_(bucket) : nullptr;
    util::check(program != nullptr,
                "Server: decode ProgramSource returned no program");

    if (kv_on_) {
        kv_prepare(batch);
    }
    bool protected_iter = false;
    iter_min_deadline_ = kInf;
    for (int r : batch) {
        protected_iter |= requests_[r].priority == Priority::kHigh;
        iter_min_deadline_ =
            std::min(iter_min_deadline_, effective_deadline(r));
        if (slo_on_) {
            ++tenant_tokens_[requests_[r].tenant];
            deficit_[requests_[r].tenant] -= 1.0;
        }
    }
    IterOutcome o =
        execute(std::move(program),
                /*can_preempt=*/!nested && !protected_iter);
    account(o, /*decode=*/true, nested);
    rep_.tokens += static_cast<int64_t>(batch.size());

    // Every member produced one token this iteration.
    for (auto it = batch.begin(); it != batch.end();) {
        bool done = --tokens_left_[*it] == 0;
        if (kv_on_) {
            kv_retire(*it, done);
        }
        if (done) {
            record_completion(*it);
            it = batch.erase(it);
        } else {
            ++it;
        }
    }
    if (!nested) {
        return;
    }
    // A nested iteration's survivors return to the head of the
    // high-priority queue (or, with slo, to their EDF slot in their
    // own class) and merge into the running batch at the next
    // boundary.
    if (!slo_on_) {
        dec_hi_.insert(dec_hi_.begin(), mini.begin(), mini.end());
    } else {
        for (int r : mini) {
            enqueue(r, /*prefill=*/false);
        }
    }
    release_scratch(std::move(mini));
}

void
DisaggRun::finalize()
{
    const int n = total_requests();
    rep_.makespan = now_;
    rep_.tokens_per_s =
        now_ > 0 ? static_cast<double>(rep_.tokens) / now_ : 0.0;
    rep_.mean_queue_depth = depth_mean_.value();
    rep_.hbm_util = hbm_mean_.value();
    rep_.noc_util = noc_mean_.value();
    rep_.steady_decode_preload =
        steady_iterations_ > 0
            ? steady_preload_sum_ / steady_iterations_
            : rep_.first_decode_preload;
    // High-priority latencies are collected before latencies_ is
    // sorted in place below (request indexing would be lost after).
    std::vector<double> high;
    high.reserve(n);
    for (int i = 0; i < n; ++i) {
        if (requests_[i].priority == Priority::kHigh) {
            high.push_back(latencies_[i]);
        }
    }
    if (n > 0) {
        // Mean first (summation order is the arrival order, as the
        // per-sample percentile() calls left it), then one sort
        // serves every percentile read.
        rep_.mean_latency = util::mean(latencies_);
        std::sort(latencies_.begin(), latencies_.end());
        rep_.p50_latency = util::percentile_sorted(latencies_, 50.0);
        rep_.p95_latency = util::percentile_sorted(latencies_, 95.0);
        rep_.p99_latency = util::percentile_sorted(latencies_, 99.0);
        rep_.max_latency = latencies_.back();
    }
    rep_.resident_bytes = state_.resident_bytes();
    rep_.preloads_skipped = state_.resident_hits();
    rep_.engine_replays = state_.replays();

    if (!ttfts_.empty()) {
        rep_.mean_ttft = util::mean(ttfts_);
        std::sort(ttfts_.begin(), ttfts_.end());
        rep_.p50_ttft = util::percentile_sorted(ttfts_, 50.0);
        rep_.p95_ttft = util::percentile_sorted(ttfts_, 95.0);
        rep_.max_ttft = ttfts_.back();
    }
    rep_.prefill_bucket_iterations = bucket_iters_;
    rep_.high_priority_requests = static_cast<int>(high.size());
    if (!high.empty()) {
        std::sort(high.begin(), high.end());
        rep_.p95_high_latency = util::percentile_sorted(high, 95.0);
    }
    rep_.kv_bytes_peak = state_.kv_bytes_peak();
    rep_.mean_kv_bytes = kv_mean_.value();
    rep_.kv_evictions = state_.kv_evictions();
    rep_.shared_kv_bytes = state_.kv_shared_bytes_peak();
    if (slo_on_) {
        rep_.tenants = opts_.tenants;
        rep_.deadline_preemptions = deadline_preemptions_;
        rep_.fairness_windows = fairness_windows_;
        for (int t = 0; t < opts_.tenants; ++t) {
            ServingReport::TenantShare s;
            s.tenant = t;
            s.requests = tenant_requests_[t];
            s.tokens = tenant_tokens_[t];
            s.deadline_requests = tenant_deadline_reqs_[t];
            s.deadline_misses = tenant_deadline_miss_[t];
            rep_.tenant_shares.push_back(s);
        }
        roll_up_tenant_shares(rep_.tenant_shares, rep_.deadline_requests,
                              rep_.deadline_misses, rep_.slo_attainment);
        if (!latenesses_.empty()) {
            std::sort(latenesses_.begin(), latenesses_.end());
            rep_.p99_lateness =
                util::percentile_sorted(latenesses_, 99.0);
            rep_.max_lateness = latenesses_.back();
        }
    }
}

ServingReport
DisaggRun::run()
{
    const int n = total_requests();
    kv_on_ = opts_.kv_budget > 0;
    slo_on_ = opts_.slo;
    // Watching deadline carriers is only worth the park/resume churn
    // when a trigger could ever fire.
    watch_deadlines_ = slo_on_ && opts_.preempt_budget > 0;
    chunk_on_ = opts_.prefill_chunk > 0;
    pre_left_.assign(n, -1);
    tail_skip_left_.assign(n, 0);
    pre_epoch_.assign(n, 0);
    pre_starved_.assign(n, false);
    waiting_.assign(n, Waiting::kNone);
    tokens_left_.resize(n);
    latencies_.assign(n, 0.0);
    ttfts_.reserve(n);
    running_.reserve(opts_.max_batch);
    kv_tokens_.assign(n, -1);
    kv_pinned_.assign(n, false);
    prefix_share_.assign(n, -1);
    prefix_pinned_.assign(n, false);
    int max_prefix = -1;
    for (int i = 0; i < n; ++i) {
        const Request& req = requests_[i];
        util::check(req.arrival >= 0 &&
                        (i == 0 ||
                         req.arrival >= requests_[i - 1].arrival),
                    "Server: requests must be sorted and non-negative");
        util::check(req.decode_tokens >= 1 ||
                        (req.decode_tokens == 0 &&
                         req.phase == Phase::kPrefill),
                    "Server: decode_tokens must be >= 1 (0 is legal "
                    "only for prefill-phase requests — the prefill "
                    "half of a cluster tier split)");
        if (req.phase == Phase::kPrefill || kv_on_) {
            util::check(opts_.max_prompt_len >= 1,
                        "Server: prefill-phase requests (and KV "
                        "modeling) need max_prompt_len (the model "
                        "sequence length)");
            util::check(req.prompt_len >= 0 &&
                            req.prompt_len <= opts_.max_prompt_len,
                        "Server: prompt_len must be in "
                        "[0, max_prompt_len]");
        }
        if (req.prefix_id >= 0) {
            util::check(opts_.prefix_sharing,
                        "Server: prefix-tagged requests need "
                        "ServerOptions::prefix_sharing");
            util::check(req.phase == Phase::kPrefill,
                        "Server: prefix-tagged requests must be "
                        "prefill-phase");
            const int len = req.prompt_len > 0 ? req.prompt_len
                                               : opts_.max_prompt_len;
            util::check(req.prefix_len >= 1 && req.prefix_len < len,
                        "Server: prefix_len must be in "
                        "[1, prompt_len - 1]");
            max_prefix = std::max(max_prefix, req.prefix_id);
        }
        if (req.kv_migrate_tokens != 0 || req.kv_migrate_stall != 0.0) {
            util::check(kv_on_,
                        "Server: KV migration (kv_migrate_tokens) "
                        "needs KV modeling (kv_budget > 0) — the "
                        "migrated segment lives in the modeled pool");
            util::check(req.kv_migrate_tokens >= 1 &&
                            req.kv_migrate_stall >= 0.0,
                        "Server: a migration must carry >= 1 token "
                        "and a non-negative stall");
            if (req.phase == Phase::kPrefill) {
                util::check(req.prefix_id >= 0 &&
                                req.kv_migrate_tokens == req.prefix_len,
                            "Server: a prefill-phase migration "
                            "imports the request's shared prefix "
                            "(kv_migrate_tokens == prefix_len)");
            } else {
                const int len = req.prompt_len > 0
                                    ? req.prompt_len
                                    : opts_.max_prompt_len;
                util::check(req.kv_migrate_tokens <= len,
                            "Server: migrated KV cannot exceed the "
                            "request's context length");
            }
        }
        if (!slo_on_) {
            util::check(req.tenant == 0 && req.deadline_s == 0.0,
                        "Server: tenant/deadline-tagged requests need "
                        "ServerOptions::slo");
        } else {
            util::check(req.tenant >= 0 && req.tenant < opts_.tenants,
                        "Server: request tenant must be in "
                        "[0, ServerOptions::tenants)");
            util::check(req.deadline_s >= 0.0,
                        "Server: deadline_s must be >= 0 "
                        "(0 = no deadline)");
            util::check(req.deadline_s == 0.0 ||
                            req.deadline_s >= req.arrival,
                        "Server: a deadline must not precede the "
                        "request's arrival");
        }
        tokens_left_[i] = req.decode_tokens;
    }
    prefix_tokens_.assign(max_prefix + 1, 0);
    rep_.requests = n;
    rep_.kv_modeled = kv_on_;
    rep_.prefix_sharing = opts_.prefix_sharing;
    rep_.slo = slo_on_;
    rep_.prefill_chunk = opts_.prefill_chunk;
    rep_.kv_locality = opts_.kv_locality;
    if (slo_on_) {
        const int t = opts_.tenants;
        tenant_tokens_.assign(t, 0);
        tenant_requests_.assign(t, 0);
        tenant_deadline_reqs_.assign(t, 0);
        tenant_deadline_miss_.assign(t, 0);
        for (int i = 0; i < n; ++i) {
            ++tenant_requests_[requests_[i].tenant];
            if (requests_[i].deadline_s > 0.0) {
                ++tenant_deadline_reqs_[requests_[i].tenant];
            }
        }
        // Per-window quanta: the window's tokens split by normalized
        // share. A window is one full decode batch plus one maximal
        // prompt: enough that a lone tenant never stalls between
        // windows, small enough that shares bite within a few
        // iterations under contention. The Server constructor
        // validated the share vector (positive, one per tenant).
        const int window_tokens = opts_.max_batch + opts_.max_prompt_len;
        std::vector<double> shares = opts_.tenant_shares;
        if (shares.empty()) {
            shares.assign(t, 1.0);
        }
        double wsum = 0.0;
        for (double w : shares) {
            wsum += w;
        }
        quantum_.resize(t);
        for (int i = 0; i < t; ++i) {
            quantum_[i] =
                static_cast<double>(window_tokens) * shares[i] /
                wsum;
        }
        // Every tenant starts with a full window (not counted in
        // fairness_windows_ — no claim was ever blocked for it).
        deficit_ = quantum_;
        preempt_left_.assign(n, opts_.preempt_budget);
        latenesses_.reserve(n);
    }

    while (completed_ < n) {
        admit();
        if (running_.empty() && waiting_total() == 0) {
            // Idle: wait for the next arrival (queue depth is zero).
            double t_next = requests_[next_arrival_].arrival;
            if (t_next > now_) {
                depth_mean_.add(t_next - now_, 0.0);
                kv_mean_.add(t_next - now_,
                             static_cast<double>(state_.kv_bytes()));
                state_.run_to(t_next);
                now_ = t_next;
            }
            continue;
        }
        if (pre_hi_.empty() && pre_lo_.empty()) {
            run_decode_iteration(ClaimMode::kAll);
            continue;
        }
        const bool decode_work =
            !running_.empty() || !dec_hi_.empty() || !dec_lo_.empty();
        if (std::exchange(chunk_yield_, false) && decode_work) {
            // A long prompt sits mid-ingestion: one decode iteration
            // runs between its chunks — the head-of-line win chunking
            // exists for.
            ++rep_.chunk_decode_interleaves;
            run_decode_iteration(ClaimMode::kAll);
            continue;
        }
        const bool head_fits = prefill_admissible();
        if (head_fits && run_prefill_iteration(ClaimMode::kAll,
                                               /*interruptible=*/true)) {
            continue;
        }
        // KV backpressure: the head prompt's segment does not fit next
        // to the resident ones, or the claim deferred on a prompt that
        // does not fit before it took anyone (with slo, the fairness
        // gate can skip a head that fits). Run decode work instead
        // when there is any (completions free KV); with nothing else
        // to run, force the first claimable prompt through (spilling)
        // so the server always makes progress. A deferral inside the
        // claim has already counted itself.
        if (decode_work) {
            if (!head_fits) {
                ++rep_.deferred_admissions;
            }
            run_decode_iteration(ClaimMode::kAll);
        } else {
            run_prefill_iteration(ClaimMode::kAll, /*interruptible=*/true,
                                  /*force_admit=*/true);
        }
    }
    finalize();
    return rep_;
}

}  // namespace

std::vector<double>
ArrivalTrace::closed_loop(int n)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    return std::vector<double>(n, 0.0);
}

std::vector<double>
ArrivalTrace::poisson(int n, double rate_per_s, uint64_t seed)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    util::check(rate_per_s > 0, "ArrivalTrace: rate must be positive");
    // mt19937_64's raw output is fully specified by the standard;
    // std::exponential_distribution is not. Inverse-CDF by hand keeps
    // the trace bit-identical across standard libraries.
    std::mt19937_64 rng(seed);
    std::vector<double> arrivals;
    arrivals.reserve(n);
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        t += -std::log1p(-u) / rate_per_s;
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<double>
ArrivalTrace::bursty(int n, double rate_per_s, double burst_factor,
                     uint64_t seed)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    util::check(rate_per_s > 0, "ArrivalTrace: rate must be positive");
    util::check(burst_factor >= 1.0 && burst_factor < 10.0,
                "ArrivalTrace: burst factor must be in [1, 10)");
    if (burst_factor == 1.0) {
        // Factor 1 collapses both MMPP states to the mean rate; the
        // process IS Poisson, so delegate for an element-by-element
        // equal trace (the state-switch crossings below would split
        // the gap arithmetic and drift the low FP bits otherwise).
        return poisson(n, rate_per_s, seed);
    }
    // Two-state MMPP: a burst state at burst_factor x the mean rate,
    // occupied kBurstFrac of the time, and a calm state scaled down so
    // the long-run rate stays rate_per_s (burst_factor < 1/kBurstFrac
    // keeps the calm rate positive). Each arrival consumes one unit-
    // exponential amount of "work" at the current state's rate;
    // state-holding times draw from their own domain-separated stream
    // so the gap draws never depend on how often the state switches.
    constexpr double kBurstFrac = 0.1;
    const double burst_rate = rate_per_s * burst_factor;
    const double calm_rate = rate_per_s *
                             (1.0 - kBurstFrac * burst_factor) /
                             (1.0 - kBurstFrac);
    // A burst lasts ~10 arrivals at the burst rate; calm holds fill
    // the remaining (1 - kBurstFrac) of the time.
    const double burst_hold = 10.0 / burst_rate;
    const double calm_hold =
        burst_hold * (1.0 - kBurstFrac) / kBurstFrac;
    std::mt19937_64 gap_rng(seed);
    std::mt19937_64 state_rng(seed ^ 0x6275727374737461ull);  // "burststa"
    auto draw = [](std::mt19937_64& rng) {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };
    bool in_burst = false;
    double t = 0.0;
    double t_switch = -std::log1p(-draw(state_rng)) * calm_hold;
    std::vector<double> arrivals;
    arrivals.reserve(n);
    for (int i = 0; i < n; ++i) {
        double work = -std::log1p(-draw(gap_rng));
        for (;;) {
            const double rate = in_burst ? burst_rate : calm_rate;
            const double need = work / rate;
            if (t + need <= t_switch) {
                t += need;
                break;
            }
            work -= (t_switch - t) * rate;
            t = t_switch;
            in_burst = !in_burst;
            t_switch = t + -std::log1p(-draw(state_rng)) *
                               (in_burst ? burst_hold : calm_hold);
        }
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<Request>
decode_requests(const std::vector<double>& arrivals, int decode_tokens)
{
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.phase = Phase::kDecode;
        r.decode_tokens = decode_tokens;
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
prefill_requests(const std::vector<double>& arrivals, int decode_tokens)
{
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.phase = Phase::kPrefill;
        r.decode_tokens = decode_tokens;
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
make_request_trace(const std::vector<double>& arrivals,
                   int decode_tokens, double prefill_frac,
                   double high_frac, uint64_t seed)
{
    util::check(prefill_frac >= 0.0 && prefill_frac <= 1.0,
                "make_request_trace: prefill fraction out of [0,1]");
    util::check(high_frac >= 0.0 && high_frac <= 1.0,
                "make_request_trace: high fraction out of [0,1]");
    std::mt19937_64 rng(seed);
    auto draw = [&rng] {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.decode_tokens = decode_tokens;
        r.phase =
            draw() < prefill_frac ? Phase::kPrefill : Phase::kDecode;
        r.priority =
            draw() < high_frac ? Priority::kHigh : Priority::kNormal;
        out.push_back(r);
    }
    return out;
}

void
tag_prompt_lengths(std::vector<Request>& requests, int max_len,
                   double mean_len, uint64_t seed)
{
    util::check(max_len >= 1,
                "tag_prompt_lengths: max_len must be >= 1");
    util::check(mean_len > 0.0,
                "tag_prompt_lengths: mean_len must be positive");
    // Domain-separate the stream from make_request_trace's: callers
    // naturally pass one trace seed to both, and an unmixed seed
    // would make request k's prompt length a function of the same
    // draw as its phase/priority tag.
    std::mt19937_64 rng(seed ^ 0x70726f6d70747376ull);  // "promptsv"
    for (Request& r : requests) {
        // Inverse-CDF exponential on the raw mt19937_64 output (see
        // ArrivalTrace::poisson): platform-stable, and one draw per
        // request so the sequence is independent of the phase mix.
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        // Clamp in double before the int cast: a large mean can push
        // the draw past INT_MAX, where the cast itself is undefined.
        double draw = std::min(-std::log1p(-u) * mean_len,
                               static_cast<double>(max_len - 1));
        r.prompt_len = 1 + static_cast<int>(std::floor(draw));
    }
}

void
tag_tenants(std::vector<Request>& requests, int tenants, uint64_t seed)
{
    util::check(tenants >= 1, "tag_tenants: tenants must be >= 1");
    if (tenants == 1) {
        // Exact no-op: no draws consumed, so the same seed tags the
        // same trace identically whether or not it passed through a
        // degenerate tenant split (mirrors make_request_trace's 0/1
        // fractions).
        return;
    }
    // Domain-separate the stream from the other taggers' (see
    // tag_prompt_lengths): one uniform draw per request on the raw
    // mt19937_64 output keeps the assignment platform-stable.
    std::mt19937_64 rng(seed ^ 0x74656e616e747376ull);  // "tenantsv"
    for (Request& r : requests) {
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        r.tenant = std::min(static_cast<int>(u * tenants), tenants - 1);
    }
}

void
tag_deadlines(std::vector<Request>& requests, double slo_s)
{
    util::check(slo_s > 0.0, "tag_deadlines: slo_s must be positive");
    // Pure arithmetic — no randomness, so the tagging is trivially
    // platform-stable and composes with any arrival process.
    for (Request& r : requests) {
        r.deadline_s = r.arrival + slo_s;
    }
}

std::vector<Request>
make_session_trace(const SessionTraceOptions& o, uint64_t seed)
{
    util::check(o.sessions >= 0,
                "make_session_trace: negative session count");
    util::check(o.rate_per_s >= 0.0,
                "make_session_trace: rate must be >= 0");
    util::check(o.burst_factor >= 1.0 && o.burst_factor < 10.0,
                "make_session_trace: burst_factor must be in [1, 10)");
    util::check(o.mean_turns >= 1.0,
                "make_session_trace: mean_turns must be >= 1");
    util::check(o.think_time_s >= 0.0,
                "make_session_trace: think_time_s must be >= 0");
    util::check(o.decode_tokens >= 1,
                "make_session_trace: decode_tokens must be >= 1");
    util::check(o.max_prompt_len >= 1,
                "make_session_trace: max_prompt_len must be >= 1");
    util::check(o.prompt_mean_len >= 0.0,
                "make_session_trace: prompt_mean_len must be >= 0");
    util::check(o.prefix_population >= 0,
                "make_session_trace: negative prefix population");
    if (o.prefix_population > 0) {
        util::check(o.max_prompt_len >= 2,
                    "make_session_trace: shared prefixes need "
                    "max_prompt_len >= 2 (one residual token must "
                    "always reach prefill)");
        util::check(o.prefix_zipf_s > 0.0,
                    "make_session_trace: prefix_zipf_s must be > 0");
        util::check(o.prefix_mean_len > 0.0,
                    "make_session_trace: prefix_mean_len must be > 0");
    }

    auto draw = [](std::mt19937_64& rng) {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };

    // Session start times: closed loop, Poisson, or bursty MMPP. The
    // arrival seed is domain-separated from every tagging stream
    // below, mirroring tag_prompt_lengths()'s discipline.
    const uint64_t arrival_seed = seed ^ 0x73657373696f6e73ull;  // "sessions"
    std::vector<double> starts;
    if (o.rate_per_s > 0.0) {
        starts = o.burst_factor > 1.0
                     ? ArrivalTrace::bursty(o.sessions, o.rate_per_s,
                                            o.burst_factor,
                                            arrival_seed)
                     : ArrivalTrace::poisson(o.sessions, o.rate_per_s,
                                             arrival_seed);
    } else {
        starts = ArrivalTrace::closed_loop(o.sessions);
    }

    // Canonical prefix lengths, one geometric draw per population id:
    // in [1, max_prompt_len - 1], so a prefix can never swallow a
    // whole prompt. Clamp in double before the int cast (see
    // tag_prompt_lengths).
    std::mt19937_64 plen_rng(seed ^ 0x7072656669786c65ull);  // "prefixle"
    std::vector<int64_t> prefix_len(o.prefix_population, 0);
    for (int p = 0; p < o.prefix_population; ++p) {
        double u = draw(plen_rng);
        double d = std::min(-std::log1p(-u) * o.prefix_mean_len,
                            static_cast<double>(o.max_prompt_len - 2));
        prefix_len[p] = 1 + static_cast<int64_t>(std::floor(d));
    }
    // Zipf popularity over population ranks: cumulative weights once,
    // one inverse-CDF binary search per session.
    std::vector<double> cum(o.prefix_population, 0.0);
    double total = 0.0;
    for (int p = 0; p < o.prefix_population; ++p) {
        total += std::pow(1.0 / static_cast<double>(p + 1),
                          o.prefix_zipf_s);
        cum[p] = total;
    }

    std::mt19937_64 turn_rng(seed ^ 0x7475726e73647261ull);   // "turnsdra"
    std::mt19937_64 think_rng(seed ^ 0x7468696e6b74696dull);  // "thinktim"
    std::mt19937_64 prompt_rng(seed ^ 0x70726d70746c656eull); // "prmptlen"
    std::mt19937_64 zipf_rng(seed ^ 0x7a6970667072656full);   // "zipfpreo"

    std::vector<Request> out;
    out.reserve(static_cast<size_t>(o.sessions));
    for (int s = 0; s < o.sessions; ++s) {
        // Geometric-tailed turn count (mean_turns == 1 is exact: no
        // draw consumed, like make_request_trace's 0/1 fractions).
        int turns = 1;
        if (o.mean_turns > 1.0) {
            double u = draw(turn_rng);
            double d = std::min(
                -std::log1p(-u) * (o.mean_turns - 1.0), 1000.0);
            turns = 1 + static_cast<int>(std::floor(d));
        }
        // Every turn of a session carries the session's prefix — the
        // follow-up turns are what the prefix cache turns into hits.
        int pid = -1;
        if (o.prefix_population > 0) {
            double u = draw(zipf_rng) * total;
            pid = static_cast<int>(
                std::lower_bound(cum.begin(), cum.end(), u) -
                cum.begin());
            pid = std::min(pid, o.prefix_population - 1);
        }
        double t = starts[s];
        for (int k = 0; k < turns; ++k) {
            if (k > 0 && o.think_time_s > 0.0) {
                t += -std::log1p(-draw(think_rng)) * o.think_time_s;
            }
            Request r;
            r.arrival = t;
            r.phase = Phase::kPrefill;
            r.decode_tokens = o.decode_tokens;
            // The private suffix past the shared prefix (the user's
            // own text); 0 mean = full-length prompts.
            int64_t suffix = o.max_prompt_len;
            if (o.prompt_mean_len > 0.0) {
                double u = draw(prompt_rng);
                double d = std::min(
                    -std::log1p(-u) * o.prompt_mean_len,
                    static_cast<double>(o.max_prompt_len - 1));
                suffix = 1 + static_cast<int64_t>(std::floor(d));
            }
            if (pid >= 0) {
                r.prefix_id = pid;
                r.prefix_len = static_cast<int>(prefix_len[pid]);
                r.prompt_len = static_cast<int>(
                    std::min(prefix_len[pid] + suffix,
                             static_cast<int64_t>(o.max_prompt_len)));
            } else {
                r.prompt_len = static_cast<int>(suffix);
            }
            out.push_back(r);
        }
    }
    // Interleave sessions into one arrival-ordered trace; stable, so
    // equal arrivals keep generation order (deterministic).
    std::stable_sort(out.begin(), out.end(),
                     [](const Request& a, const Request& b) {
                         return a.arrival < b.arrival;
                     });
    return out;
}

void
roll_up_tenant_shares(std::vector<ServingReport::TenantShare>& shares,
                      int& deadline_requests, int& deadline_misses,
                      double& slo_attainment)
{
    auto attainment = [](int carriers, int misses) {
        return carriers > 0 ? static_cast<double>(carriers - misses) /
                                  static_cast<double>(carriers)
                            : 1.0;
    };
    int64_t total_work = 0;
    deadline_requests = 0;
    deadline_misses = 0;
    for (const ServingReport::TenantShare& s : shares) {
        total_work += s.tokens;
        deadline_requests += s.deadline_requests;
        deadline_misses += s.deadline_misses;
    }
    for (ServingReport::TenantShare& s : shares) {
        s.token_share = total_work > 0
                            ? static_cast<double>(s.tokens) /
                                  static_cast<double>(total_work)
                            : 0.0;
        s.attainment = attainment(s.deadline_requests, s.deadline_misses);
    }
    slo_attainment = attainment(deadline_requests, deadline_misses);
}

std::string
tenant_share_lines(const std::vector<ServingReport::TenantShare>& shares)
{
    std::ostringstream out;
    for (const ServingReport::TenantShare& t : shares) {
        out << "\n  tenant " << t.tenant << "     : " << t.requests
            << " requests, " << t.tokens << " tokens ("
            << pct(t.token_share) << " share), attainment "
            << pct(t.attainment) << " (" << t.deadline_misses
            << " missed)";
    }
    return out.str();
}

void
append_tenant_shares(std::string& out,
                     const std::vector<ServingReport::TenantShare>& shares)
{
    append_bits(out, static_cast<int>(shares.size()));
    for (const ServingReport::TenantShare& t : shares) {
        append_bits(out, t.tenant);
        append_bits(out, t.requests);
        append_bits(out, t.tokens);
        append_bits(out, t.token_share);
        append_bits(out, t.deadline_requests);
        append_bits(out, t.deadline_misses);
        append_bits(out, t.attainment);
    }
}

std::string
ServingReport::summary() const
{
    std::ostringstream out;
    out << "served " << requests << " requests / " << tokens
        << " tokens in " << iterations << " iterations ("
        << prefill_iterations << " prefill + " << decode_iterations
        << " decode), makespan " << ms(makespan) << " ms\n"
        << "  latency ms   : p50 " << ms(p50_latency) << "  p95 "
        << ms(p95_latency) << "  p99 " << ms(p99_latency) << "  max "
        << ms(max_latency) << "\n"
        << "  goodput      : " << tokens_per_s << " tokens/s\n"
        << "  queue depth  : mean " << mean_queue_depth << ", peak "
        << peak_queue_depth << "\n"
        << "  utilization  : hbm " << pct(hbm_util) << ", noc "
        << pct(noc_util) << "\n"
        << "  decode preload ms: first " << ms(first_decode_preload)
        << ", steady " << ms(steady_decode_preload) << " ("
        << resident_bytes / 1024 << " KB/core resident, "
        << preloads_skipped << " preloads skipped)\n"
        << "  engine memo  : " << engine_replays << " engine replays";
    if (prefill_iterations > 0) {
        out << "\n  ttft ms      : mean " << ms(mean_ttft) << "  p50 "
            << ms(p50_ttft) << "  p95 " << ms(p95_ttft) << "  max "
            << ms(max_ttft);
        out << "\n  prefill      : " << prompt_tokens
            << " prompt tokens, " << padded_prompt_tokens
            << " padded; buckets";
        for (const PrefillBucket& b : prefill_bucket_iterations) {
            out << " b" << b.batch << "xL" << b.prompt_len << ":"
                << b.iterations;
        }
    }
    if (high_priority_requests > 0) {
        out << "\n  high priority: " << high_priority_requests
            << " requests, p95 " << ms(p95_high_latency) << " ms, "
            << preemptions << " preemptions";
    }
    if (kv_modeled) {
        out << "\n  kv residency : peak " << kv_bytes_peak / 1024
            << " KB/core, mean " << mean_kv_bytes / 1024.0 << " KB; "
            << kv_evictions << " evictions, " << kv_refetches
            << " refetches (" << ms(kv_stall) << " ms stalled), "
            << deferred_admissions << " deferred admissions";
        if (kv_migrations > 0) {
            out << "\n  kv migration : " << kv_migrations
                << " transfers / " << kv_migrated_tokens
                << " tokens in over the interconnect ("
                << ms(kv_migration_stall) << " ms stalled)";
        }
    }
    if (prefix_sharing) {
        out << "\n  prefix cache : " << prefix_hits << " hits / "
            << prefix_hit_tokens << " tokens; "
            << prefill_tokens_saved << " prefill token slots saved; "
            << "peak shared KV " << shared_kv_bytes / 1024
            << " KB/core";
    }
    if (slo) {
        out << "\n  slo          : "
            << (deadline_requests - deadline_misses) << "/"
            << deadline_requests << " deadlines met ("
            << pct(slo_attainment) << " attainment), p99 lateness "
            << ms(p99_lateness) << " ms, max " << ms(max_lateness)
            << " ms; " << deadline_preemptions
            << " deadline preemptions, " << fairness_windows
            << " fairness windows" << tenant_share_lines(tenant_shares);
    }
    if (prefill_chunk > 0) {
        out << "\n  chunked prefill: chunk " << prefill_chunk << ", "
            << chunked_prompts << " chunked prompts / "
            << prefill_chunks << " chunks, "
            << chunk_decode_interleaves << " decode interleaves";
    }
    if (kv_locality) {
        out << "\n  kv locality  : " << kv_locality_skips
            << " spilled claims passed over for resident work";
    }
    return out.str();
}

std::string
ServingReport::serialize_bits() const
{
    std::string out;
    out.reserve(224);
    append_bits(out, requests);
    append_bits(out, iterations);
    append_bits(out, tokens);
    append_bits(out, makespan);
    append_bits(out, mean_latency);
    append_bits(out, p50_latency);
    append_bits(out, p95_latency);
    append_bits(out, p99_latency);
    append_bits(out, max_latency);
    append_bits(out, tokens_per_s);
    append_bits(out, mean_queue_depth);
    append_bits(out, peak_queue_depth);
    append_bits(out, hbm_util);
    append_bits(out, noc_util);
    append_bits(out, peak_sram_per_core);
    append_bits(out, static_cast<uint8_t>(memory_exceeded ? 1 : 0));
    append_bits(out, first_decode_preload);
    append_bits(out, steady_decode_preload);
    append_bits(out, resident_bytes);
    append_bits(out, preloads_skipped);
    append_bits(out, prefill_iterations);
    append_bits(out, decode_iterations);
    append_bits(out, preemptions);
    append_bits(out, mean_ttft);
    append_bits(out, p50_ttft);
    append_bits(out, p95_ttft);
    append_bits(out, max_ttft);
    append_bits(out, high_priority_requests);
    append_bits(out, p95_high_latency);
    append_bits(out, prompt_tokens);
    append_bits(out, padded_prompt_tokens);
    append_bits(out,
                static_cast<int>(prefill_bucket_iterations.size()));
    for (const PrefillBucket& b : prefill_bucket_iterations) {
        append_bits(out, b.batch);
        append_bits(out, b.prompt_len);
        append_bits(out, b.iterations);
    }
    append_bits(out, static_cast<uint8_t>(kv_modeled ? 1 : 0));
    append_bits(out, kv_bytes_peak);
    append_bits(out, mean_kv_bytes);
    append_bits(out, kv_evictions);
    append_bits(out, kv_refetches);
    append_bits(out, kv_stall);
    append_bits(out, deferred_admissions);
    append_bits(out, kv_migrations);
    append_bits(out, kv_migrated_tokens);
    append_bits(out, kv_migration_stall);
    append_bits(out, static_cast<uint8_t>(prefix_sharing ? 1 : 0));
    append_bits(out, prefix_hits);
    append_bits(out, prefix_hit_tokens);
    append_bits(out, prefill_tokens_saved);
    append_bits(out, shared_kv_bytes);
    append_bits(out, static_cast<uint8_t>(slo ? 1 : 0));
    append_bits(out, tenants);
    append_bits(out, deadline_requests);
    append_bits(out, deadline_misses);
    append_bits(out, slo_attainment);
    append_bits(out, p99_lateness);
    append_bits(out, max_lateness);
    append_bits(out, deadline_preemptions);
    append_bits(out, fairness_windows);
    append_tenant_shares(out, tenant_shares);
    append_bits(out, prefill_chunk);
    append_bits(out, chunked_prompts);
    append_bits(out, prefill_chunks);
    append_bits(out, chunk_decode_interleaves);
    append_bits(out, static_cast<uint8_t>(kv_locality ? 1 : 0));
    append_bits(out, kv_locality_skips);
    return out;
}

Server::Server(const sim::Machine& machine, ServerOptions opts)
    : machine_(machine), opts_(std::move(opts))
{
    util::check(opts_.max_batch >= 1, "Server: max_batch must be >= 1");
    util::check(opts_.tokens_per_request >= 1,
                "Server: tokens_per_request must be >= 1");
    util::check(opts_.max_prefill_batch >= 1,
                "Server: max_prefill_batch must be >= 1");
    util::check(opts_.max_prompt_len >= 0,
                "Server: max_prompt_len must be >= 0");
    if (opts_.max_prompt_len >= 1) {
        finalize_prompt_buckets(opts_.prompt_buckets,
                                opts_.max_prompt_len);
    } else {
        util::check(opts_.prompt_buckets.empty(),
                    "Server: prompt buckets need max_prompt_len");
    }
    if (opts_.kv_budget > 0) {
        util::check(opts_.kv_bytes_per_token > 0,
                    "Server: KV modeling needs kv_bytes_per_token "
                    "(see graph::kv_bytes_per_token)");
        util::check(opts_.max_prompt_len >= 1,
                    "Server: KV modeling needs max_prompt_len to "
                    "size per-request KV segments");
    }
    if (opts_.prefix_sharing) {
        util::check(opts_.kv_budget > 0,
                    "Server: prefix sharing needs KV modeling "
                    "(kv_budget > 0) — shared prefix segments live "
                    "in the modeled KV pool");
    }
    util::check(opts_.prefill_chunk >= 0,
                "Server: prefill_chunk must be >= 0 (0 disables "
                "chunked prefill)");
    if (opts_.prefill_chunk > 0) {
        util::check((opts_.prefill_chunk &
                     (opts_.prefill_chunk - 1)) == 0,
                    "Server: prefill_chunk must be a power of two "
                    "(the chunk grid quantization)");
        util::check(opts_.max_prompt_len >= 1,
                    "Server: chunked prefill needs max_prompt_len "
                    "(the model sequence length)");
        util::check(opts_.prefill_chunk <= opts_.max_prompt_len,
                    "Server: prefill_chunk must not exceed "
                    "max_prompt_len");
        util::check(opts_.prompt_buckets.size() >= 2,
                    "Server: chunked prefill needs a multi-entry "
                    "prompt bucket ladder (varlen buckets) — with a "
                    "single full-length bucket every chunk would pad "
                    "to the full sequence");
    }
    if (opts_.kv_locality) {
        util::check(opts_.kv_budget > 0,
                    "Server: kv_locality needs KV modeling "
                    "(kv_budget > 0) — residency is what it steers "
                    "by");
    }
    util::check(opts_.tenants >= 1, "Server: tenants must be >= 1");
    util::check(opts_.preempt_budget >= 0,
                "Server: preempt_budget must be >= 0 (0 disables "
                "deadline preemption)");
    if (!opts_.slo) {
        util::check(opts_.tenants == 1 && opts_.tenant_shares.empty(),
                    "Server: multi-tenant shares need "
                    "ServerOptions::slo");
    } else {
        util::check(opts_.tenant_shares.empty() ||
                        static_cast<int>(opts_.tenant_shares.size()) ==
                            opts_.tenants,
                    "Server: tenant_shares must be empty (equal "
                    "shares) or carry one weight per tenant");
        for (double w : opts_.tenant_shares) {
            util::check(w > 0.0,
                        "Server: tenant share weights must be "
                        "positive");
        }
    }
}

// NOTE: this loop intentionally does NOT delegate to DisaggRun. It is
// the PR 2 reference implementation, kept verbatim so the bit-identity
// assertion in tests/preempt_test.cc (DisaggRun on a degenerate trace
// == this loop, across all five modes) anchors the disaggregated
// scheduler to an independent baseline. An accounting change must be
// made in both loops — the test enforcing that is the point.
ServingReport
Server::serve(const std::vector<double>& arrivals,
              const ProgramSource& programs) const
{
    // This loop is the KV-free reference; silently skipping KV
    // modeling here would let a caller believe it was applied.
    util::check(opts_.kv_budget == 0,
                "Server: KV modeling (kv_budget > 0) requires the "
                "Request-based serve() overload");
    const int n = static_cast<int>(arrivals.size());
    for (int i = 0; i < n; ++i) {
        util::check(arrivals[i] >= 0 &&
                        (i == 0 || arrivals[i] >= arrivals[i - 1]),
                    "Server: arrivals must be sorted and non-negative");
    }

    // The first iteration runs cold (no retention) and measures the
    // working-set peak; the residency budget is then the leftover
    // SRAM slack, so retained weights never contend with the working
    // set and survive whole decode cycles.
    sim::EngineState state(machine_, engine_options(opts_));

    struct Active {
        int req = -1;
        int tokens_left = 0;
    };
    std::vector<Active> running;
    running.reserve(opts_.max_batch);
    std::deque<int> waiting;
    int next_arrival = 0;
    int completed = 0;
    std::vector<double> latencies(n, 0.0);

    ServingReport rep;
    rep.requests = n;
    util::WeightedMean depth_mean;
    util::WeightedMean hbm_mean;
    util::WeightedMean noc_mean;
    double steady_preload_sum = 0.0;
    int steady_iterations = 0;
    double now = 0.0;

    while (completed < n) {
        // Arrivals up to the current clock join the queue.
        while (next_arrival < n && arrivals[next_arrival] <= now) {
            waiting.push_back(next_arrival++);
        }
        if (running.empty() && waiting.empty()) {
            // Idle: wait for the next arrival (queue depth is zero).
            double t_next = arrivals[next_arrival];
            if (t_next > now) {
                depth_mean.add(t_next - now, 0.0);
                state.run_to(t_next);
                now = t_next;
            }
            continue;
        }

        // Iteration-level batching: waiting requests claim free batch
        // slots at the iteration boundary.
        while (!waiting.empty() &&
               static_cast<int>(running.size()) < opts_.max_batch) {
            running.push_back(
                {waiting.front(), opts_.tokens_per_request});
            waiting.pop_front();
        }
        rep.peak_queue_depth = std::max(
            rep.peak_queue_depth, static_cast<int>(waiting.size()));

        int bucket = batch_bucket(static_cast<int>(running.size()),
                                  opts_.max_batch);
        std::shared_ptr<const sim::SimProgram> program = programs(bucket);
        util::check(program != nullptr,
                    "Server: ProgramSource returned no program");

        // One decode iteration for the whole running batch.
        double start = now;
        state.begin(*program);
        while (state.step()) {
        }
        sim::SimResult r = state.finish();
        now = state.now();
        double duration = now - start;

        ++rep.iterations;
        if (rep.iterations == 1) {
            rep.first_decode_preload = r.preload_only;
            if (opts_.keep_resident) {
                uint64_t usable =
                    machine_.config().usable_sram_per_core();
                state.set_residency_budget(
                    usable > r.peak_sram_per_core
                        ? usable - r.peak_sram_per_core
                        : 0);
            }
        } else {
            steady_preload_sum += r.preload_only;
            ++steady_iterations;
        }
        hbm_mean.add(duration, r.hbm_util);
        noc_mean.add(duration, r.noc_util);
        depth_mean.add(duration, static_cast<double>(waiting.size()));
        rep.peak_sram_per_core =
            std::max(rep.peak_sram_per_core, r.peak_sram_per_core);
        rep.memory_exceeded |= r.memory_exceeded;
        rep.tokens += static_cast<int64_t>(running.size());

        // Every running request produced one token this iteration.
        for (auto it = running.begin(); it != running.end();) {
            if (--it->tokens_left == 0) {
                latencies[it->req] = now - arrivals[it->req];
                ++completed;
                it = running.erase(it);
            } else {
                ++it;
            }
        }
    }

    rep.makespan = now;
    rep.tokens_per_s = now > 0 ? static_cast<double>(rep.tokens) / now
                               : 0.0;
    rep.mean_queue_depth = depth_mean.value();
    rep.hbm_util = hbm_mean.value();
    rep.noc_util = noc_mean.value();
    rep.steady_decode_preload =
        steady_iterations > 0 ? steady_preload_sum / steady_iterations
                              : rep.first_decode_preload;
    if (n > 0) {
        // Mean first (arrival-order summation), then sort once for
        // every percentile — mirrored from DisaggRun::finalize().
        rep.mean_latency = util::mean(latencies);
        std::sort(latencies.begin(), latencies.end());
        rep.p50_latency = util::percentile_sorted(latencies, 50.0);
        rep.p95_latency = util::percentile_sorted(latencies, 95.0);
        rep.p99_latency = util::percentile_sorted(latencies, 99.0);
        rep.max_latency = latencies.back();
    }
    rep.resident_bytes = state.resident_bytes();
    rep.preloads_skipped = state.resident_hits();
    rep.decode_iterations = rep.iterations;
    return rep;
}

ServingReport
Server::serve(const std::vector<Request>& requests,
              const PrefillProgramSource& prefill_programs,
              const ProgramSource& decode_programs) const
{
    DisaggRun run(machine_, opts_, requests, prefill_programs,
                  decode_programs);
    return run.run();
}

}  // namespace elk::runtime
