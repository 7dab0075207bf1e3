#include "runtime/iteration_executor.h"

#include <algorithm>

#include "util/logging.h"

namespace elk::runtime {

int
batch_bucket(int need, int max)
{
    int b = 1;
    while (b < need && b < max) {
        b *= 2;
    }
    return std::min(b, max);
}

IterationExecutor::IterationExecutor(
    const sim::Machine& machine, const ServerOptions& opts,
    const std::vector<Request>& requests,
    const Server::PrefillProgramSource& prefill_programs,
    const Server::ProgramSource& decode_programs, WaitQueues& queues,
    KvLedger& ledger, ServingReport& rep)
    : machine_(machine),
      opts_(opts),
      requests_(requests),
      prefill_src_(prefill_programs),
      decode_src_(decode_programs),
      queues_(queues),
      ledger_(ledger),
      rep_(rep),
      state_(machine, engine_options(opts)),
      pre_left_(requests.size(), -1),
      latencies_(requests.size(), 0.0)
{
    tokens_left_.reserve(requests.size());
    for (const Request& r : requests) {
        tokens_left_.push_back(r.decode_tokens);
    }
    ttfts_.reserve(requests.size());
    running_.reserve(opts.max_batch);
}

void
IterationExecutor::idle_until(double t)
{
    if (t > now_) {
        depth_mean_.add(t - now_, 0.0);
        kv_mean_.add(t - now_, static_cast<double>(state_.kv_bytes()));
        state_.run_to(t);
        now_ = t;
    }
}

bool
IterationExecutor::prefill_admissible() const
{
    const int head = queues_.prefill_head();
    return head < 0 || ledger_.admits(head, pre_left_[head], state_);
}

void
IterationExecutor::record_completion(int r)
{
    const Request& req = requests_[r];
    latencies_[r] = now_ - req.arrival;
    if (req.priority == Priority::kHigh) {
        high_latencies_.push_back(latencies_[r]);
    }
    ++completed_;
    if (req.deadline_s > 0.0) {
        const double late = now_ - req.deadline_s;
        latenesses_.push_back(std::max(0.0, late));
        if (late > 0.0) {
            ++rep_.tenant_shares[req.tenant].deadline_misses;
        }
    }
}

void
IterationExecutor::charge_kv(const KvStall& s)
{
    // Each stall is a pure clock advance before the iteration (the
    // engine is idle) whose window still enters every time-weighted
    // mean, the fabric quiet throughout.
    auto idle = [&](double dt, double hbm_util) {
        depth_mean_.add(dt, static_cast<double>(queues_.waiting()));
        kv_mean_.add(dt, static_cast<double>(state_.kv_bytes()));
        hbm_mean_.add(dt, hbm_util);
        noc_mean_.add(dt, 0.0);
        state_.run_to(state_.now() + dt);
        now_ = state_.now();
    };
    if (s.stream_tokens > 0) {
        // One serial HBM transfer: HBM saturated for its transfer part.
        const hw::ChipConfig& cfg = machine_.config();
        const double stream = static_cast<double>(s.stream_tokens) *
                              static_cast<double>(opts_.kv_bytes_per_token) /
                              cfg.hbm_total_bw;
        const double dt = cfg.hbm_access_latency_s + stream;
        rep_.kv_stall += dt;
        idle(dt, stream / dt);
    }
    if (s.migrate > 0.0) {
        // The segment lands over the chip-to-chip wire: local HBM
        // carries none of it — the router already folded the wire's
        // latency + bandwidth into the stall.
        rep_.kv_migration_stall += s.migrate;
        idle(s.migrate, 0.0);
    }
}

void
IterationExecutor::execute(std::shared_ptr<const sim::SimProgram> program,
                           const std::vector<int>& members, bool decode,
                           bool nested)
{
    // An iteration serving a high-priority member is protected; with
    // nested iterations never watching, the park depth is at most one.
    bool watch = !nested && opts_.preempt;
    double min_deadline = kInf;
    for (int r : members) {
        watch &= requests_[r].priority != Priority::kHigh;
        min_deadline = std::min(min_deadline, effective_deadline(requests_[r]));
    }
    const double start = now_;
    double interrupted = 0.0;
    state_.begin_memo(std::move(program),
                      watch ? queues_.next_watcher() : kInf);
    while (state_.step()) {
        if (watch && queues_.next_watcher() <= state_.now()) {
            interrupted += preempt_for_high(min_deadline);
        }
    }
    const sim::SimResult r = state_.finish();
    now_ = state_.now();
    account(r, now_ - start - interrupted, decode, nested);
}

double
IterationExecutor::preempt_for_high(double victim_deadline)
{
    sim::EngineState::Parked parked = state_.park();
    const double park_t = state_.now();
    now_ = park_t;
    queues_.admit(now_);  // the triggering request joins its queue
    bool trig_prefill = false;
    if (queues_.high_waiting(/*prefill=*/true)) {
        // A high-priority prompt jumps KV backpressure too: its segment
        // is force-admitted (spilling unpinned segments, or born
        // spilled) rather than deferred — preemption exists to cut its
        // latency, and the spill cost is modeled.
        ++rep_.preemptions;
        run_prefill_iteration(ClaimMode::kHighOnly, /*force_admit=*/true);
    } else if (queues_.high_waiting(/*prefill=*/false)) {
        ++rep_.preemptions;
        run_decode_iteration(ClaimMode::kHighOnly);
    } else if (queues_.take_trigger(victim_deadline, &trig_prefill) >= 0) {
        // No high-priority work, but a deadline carrier more urgent
        // than every member of the running iteration still holds
        // trigger budget; riders sharing the nested iteration are free.
        ++rep_.preemptions;
        ++rep_.deadline_preemptions;
        if (trig_prefill) {
            run_prefill_iteration(ClaimMode::kUrgent, /*force_admit=*/true);
        } else {
            run_decode_iteration(ClaimMode::kUrgent);
        }
    }
    // A watcher trip with no trigger is a harmless exact park/resume:
    // no iteration ran, the engine clock is where park() left it.
    state_.resume(std::move(parked));
    return state_.now() - park_t;
}

void
IterationExecutor::account(const sim::SimResult& r, double duration,
                           bool decode, bool nested)
{
    ++rep_.iterations;
    // The residency budget is the SRAM slack left by the first cold
    // full iteration's working set. A nested preemption iteration can
    // be accounted before its victim: skip it here — a mini batch's
    // small peak would oversize the budget (and a nested prefill could
    // zero it for good).
    if (!budget_set_ && !nested && opts_.keep_resident) {
        budget_set_ = true;
        uint64_t usable = machine_.config().usable_sram_per_core();
        state_.set_residency_budget(usable > r.peak_sram_per_core
                                        ? usable - r.peak_sram_per_core
                                        : 0);
    }
    if (decode) {
        ++rep_.decode_iterations;
        if (rep_.decode_iterations == 1) {
            rep_.first_decode_preload = r.preload_only;
        } else {
            steady_preload_sum_ += r.preload_only;
            ++steady_iterations_;
        }
    } else {
        ++rep_.prefill_iterations;
    }
    hbm_mean_.add(duration, r.hbm_util);
    noc_mean_.add(duration, r.noc_util);
    depth_mean_.add(duration, static_cast<double>(queues_.waiting()));
    kv_mean_.add(duration, static_cast<double>(state_.kv_bytes()));
    rep_.peak_sram_per_core =
        std::max(rep_.peak_sram_per_core, r.peak_sram_per_core);
    rep_.memory_exceeded |= r.memory_exceeded;
}

void
IterationExecutor::ingest_prompt(int r, PrefillClaim& c)
{
    const bool first = pre_left_[r] < 0;
    const int remaining =
        first ? ledger_.open_prompt(r, c.stall, state_) : pre_left_[r];
    const int ingest = chunk_of(remaining, opts_.prefill_chunk);
    if (opts_.prefill_chunk > 0) {
        if (first && remaining > ingest) {
            ++rep_.chunked_prompts;
        }
        pre_left_[r] = remaining - ingest;
        ++rep_.prefill_chunks;
    }
    ledger_.ingest(r, ingest, state_);
    c.residuals.push_back(ingest);
    c.tokens += ingest;
    c.len = std::max(c.len, ingest);
    c.full_len = std::max(
        c.full_len,
        first ? chunk_of(effective_prompt_len(requests_[r],
                                              opts_.max_prompt_len),
                         opts_.prefill_chunk)
              : ingest);
}

bool
IterationExecutor::run_prefill_iteration(ClaimMode mode, bool force_admit)
{
    PrefillClaim& c = claims_[mode != ClaimMode::kAll];
    c.members.clear();
    c.residuals.clear();
    c.tokens = 0;
    c.len = c.full_len = 1;
    c.stall = {};
    bool deferred = false;
    queues_.claim(/*prefill=*/true, mode, c.members, [&](int r) {
        if (!ledger_.admits(r, pre_left_[r], state_) &&
            !(force_admit && c.members.empty())) {
            ++rep_.deferred_admissions;
            deferred = true;
            return Admit::kStop;
        }
        ingest_prompt(r, c);
        return Admit::kTake;
    });
    if (deferred && c.members.empty()) {
        return false;
    }
    util::check(!c.members.empty(),
                "Server: a prefill iteration claimed no prompt");
    rep_.peak_queue_depth = std::max(rep_.peak_queue_depth,
                                     static_cast<int>(queues_.waiting()));
    charge_kv(c.stall);
    const int bucket = batch_bucket(static_cast<int>(c.members.size()),
                                    opts_.max_prefill_batch);
    // Fairness charges actual ingested work: a long prompt can push its
    // tenant into deficit debt repaid over later windows.
    for (size_t i = 0; i < c.members.size(); ++i) {
        queues_.charge(c.members[i], c.residuals[i]);
    }
    // The claimed prompts share one program: the smallest length bucket
    // covering the longest ingest. Everything shorter is padded up to
    // the bucket — the waste the report tracks.
    const int len_bucket = pick_bucket(opts_.prompt_buckets, c.len);
    // Program-level savings: the length bucket these claims would have
    // needed at their full prompt lengths, vs the residual bucket
    // actually compiled (the same bucket when no prefix was cached).
    const int full_bucket = pick_bucket(opts_.prompt_buckets, c.full_len);
    rep_.prefill_tokens_saved +=
        static_cast<int64_t>(bucket) * (full_bucket - len_bucket);
    std::shared_ptr<const sim::SimProgram> program =
        prefill_src_ ? prefill_src_(bucket, len_bucket) : nullptr;
    util::check(program != nullptr,
                "Server: prefill ProgramSource returned no program");
    rep_.prompt_tokens += c.tokens;
    rep_.padded_prompt_tokens +=
        static_cast<int64_t>(bucket) * len_bucket - c.tokens;
    ++bucket_iters_[{len_bucket, bucket}];

    execute(std::move(program), c.members, /*decode=*/false,
            /*nested=*/mode != ClaimMode::kAll);

    // Prompt ingested: record TTFT and hand the request to the decode
    // class (high-priority members keep their class). The KV segment
    // stays for the decode phase; only the iteration's pins are
    // released (the prefix share is held until the request completes).
    // A prefill-only request (decode_tokens == 0 — the prefill half of
    // a cluster tier split) completes here instead: its KV ships onward
    // over the interconnect, so the local segment frees at once.
    for (int r : c.members) {
        ledger_.release_pins(r, state_);
        if (pre_left_[r] > 0) {
            // More chunks to ingest: back to the prefill queue, no TTFT
            // yet — it fires when the final chunk retires. The next
            // boundary yields one decode iteration if decode work
            // waits, so decode never stalls behind the whole prompt.
            chunk_yield_ = true;
            queues_.enqueue(r, /*prefill=*/true, pre_left_[r]);
            continue;
        }
        ttfts_.push_back(now_ - requests_[r].arrival);
        if (tokens_left_[r] == 0) {
            ledger_.retire(r, /*completed=*/true, state_);
            record_completion(r);
            continue;
        }
        queues_.enqueue(r, /*prefill=*/false);
    }
    return true;
}

void
IterationExecutor::run_decode_iteration(ClaimMode mode)
{
    // Iteration-level batching: waiting requests claim free batch slots
    // at the iteration boundary, high-priority first. The claim caps
    // the list's total size, so appending to running_ directly fills
    // exactly the free batch slots. A nested iteration fills a mini
    // batch instead.
    const bool nested = mode != ClaimMode::kAll;
    std::vector<int>& batch = nested ? mini_ : running_;
    const bool locality = !nested && opts_.kv_locality;
    if (locality) {
        // KV-locality: free slots fill with KV-resident requests first,
        // every spilled one passed over counting one kv_locality_skips,
        // so a hot batch never thrashes its SRAM residency streaming a
        // cold segment back mid-flight. This walk opens no fairness
        // window; when it leaves the batch empty, the full walk below
        // runs the spilled head exactly as without locality.
        queues_.claim(
            /*prefill=*/false, mode, batch,
            [&](int r) {
                if (ledger_.resident(r, state_)) {
                    return Admit::kTake;
                }
                ++rep_.kv_locality_skips;
                return Admit::kPass;
            },
            /*windows=*/false);
    }
    if (!locality || batch.empty()) {
        queues_.claim(/*prefill=*/false, mode, batch,
                      [](int) { return Admit::kTake; });
    }
    rep_.peak_queue_depth = std::max(rep_.peak_queue_depth,
                                     static_cast<int>(queues_.waiting()));

    const int bucket =
        batch_bucket(static_cast<int>(batch.size()), opts_.max_batch);
    std::shared_ptr<const sim::SimProgram> program =
        decode_src_ ? decode_src_(bucket) : nullptr;
    util::check(program != nullptr,
                "Server: decode ProgramSource returned no program");
    charge_kv(ledger_.prepare(batch, state_));
    for (int r : batch) {
        queues_.charge(r, 1);
    }
    execute(std::move(program), batch, /*decode=*/true, nested);
    rep_.tokens += static_cast<int64_t>(batch.size());

    // Every member produced one token this iteration.
    for (auto it = batch.begin(); it != batch.end();) {
        const bool done = --tokens_left_[*it] == 0;
        ledger_.retire(*it, done, state_);
        if (done) {
            record_completion(*it);
            it = batch.erase(it);
        } else {
            ++it;
        }
    }
    if (nested) {
        // Survivors merge into the running batch at the next boundary.
        queues_.requeue(mini_);
        mini_.clear();
    }
}

void
IterationExecutor::finalize()
{
    const int n = static_cast<int>(requests_.size());
    rep_.requests = n;
    rep_.kv_modeled = opts_.kv_budget > 0;
    rep_.prefix_sharing = opts_.prefix_sharing;
    rep_.slo = opts_.slo;
    rep_.prefill_chunk = opts_.prefill_chunk;
    rep_.kv_locality = opts_.kv_locality;
    rep_.makespan = now_;
    rep_.tokens_per_s =
        now_ > 0 ? static_cast<double>(rep_.tokens) / now_ : 0.0;
    rep_.mean_queue_depth = depth_mean_.value();
    rep_.hbm_util = hbm_mean_.value();
    rep_.noc_util = noc_mean_.value();
    rep_.steady_decode_preload =
        steady_iterations_ > 0 ? steady_preload_sum_ / steady_iterations_
                               : rep_.first_decode_preload;
    if (n > 0) {
        // Mean first (summation order is the arrival order), then one
        // sort serves every percentile read.
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
    for (const auto& [key, iterations] : bucket_iters_) {
        rep_.prefill_bucket_iterations.push_back(
            {key.second, key.first, iterations});
    }
    rep_.high_priority_requests = static_cast<int>(high_latencies_.size());
    if (!high_latencies_.empty()) {
        std::sort(high_latencies_.begin(), high_latencies_.end());
        rep_.p95_high_latency = util::percentile_sorted(high_latencies_, 95.0);
    }
    rep_.kv_bytes_peak = state_.kv_bytes_peak();
    rep_.mean_kv_bytes = kv_mean_.value();
    rep_.kv_evictions = state_.kv_evictions();
    rep_.shared_kv_bytes = state_.kv_shared_bytes_peak();
    if (opts_.slo) {
        rep_.tenants = opts_.tenants;
        roll_up_tenant_shares(rep_.tenant_shares, rep_.deadline_requests,
                              rep_.deadline_misses, rep_.slo_attainment);
        if (!latenesses_.empty()) {
            std::sort(latenesses_.begin(), latenesses_.end());
            rep_.p99_lateness = util::percentile_sorted(latenesses_, 99.0);
            rep_.max_lateness = latenesses_.back();
        }
    }
}

}  // namespace elk::runtime
