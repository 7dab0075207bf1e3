/**
 * @file
 * The serving scheduler's iteration executor (one part of DisaggRun,
 * server.cc): owns the persistent EngineState and runs one prefill or
 * decode iteration at a time, filling its batch through
 * WaitQueues::claim() and driving the KvLedger around it. Decode
 * members persist across iterations until their tokens are done. A
 * preemption parks the victim (EngineState::park), runs one nested
 * iteration of the same two routines, and resumes it. Programs load
 * through the engine's iteration memo (EngineState::begin_memo). On a
 * decode-only all-normal trace the executor performs exactly the
 * accumulator operations and engine runs of the plain
 * Server::serve(arrivals) loop, so the reports are bit-identical
 * (tests/preempt_test.cc).
 */
#ifndef ELK_RUNTIME_ITERATION_EXECUTOR_H
#define ELK_RUNTIME_ITERATION_EXECUTOR_H

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/kv_ledger.h"
#include "runtime/server.h"
#include "runtime/wait_queues.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "util/stats.h"

namespace elk::runtime {

/// The batch bucket covering @p need on the ladder {1, 2, 4, ...,
/// max}: the smallest power of two >= need, capped at @p max.
int batch_bucket(int need, int max);

/// The engine options a serve with @p opts runs on: no weight
/// retention until the first iteration sizes the residency budget.
inline sim::EngineState::Options
engine_options(const ServerOptions& opts)
{
    return {/*residency_budget=*/0, opts.kv_budget};
}

class IterationExecutor {
  public:
    /// @p requests must be validated; every argument must outlive the
    /// executor.
    IterationExecutor(const sim::Machine& machine, const ServerOptions& opts,
                      const std::vector<Request>& requests,
                      const Server::PrefillProgramSource& prefill_programs,
                      const Server::ProgramSource& decode_programs,
                      WaitQueues& queues, KvLedger& ledger,
                      ServingReport& rep);

    double now() const { return now_; }
    /// Every request has completed.
    bool done() const { return completed_ == requests_.size(); }
    /// The persistent decode batch holds members.
    bool running() const { return !running_.empty(); }
    /// Idles the clock to @p t (no-op when it is not ahead).
    void idle_until(double t);
    /// The head of the prefill queues fits the KV ledger (true when none
    /// waits) — the head-of-queue backpressure check.
    bool prefill_admissible() const;
    /// A prefill iteration re-queued a part-ingested prompt since the
    /// last call: the next boundary yields one decode iteration.
    bool take_chunk_yield() { return std::exchange(chunk_yield_, false); }

    /**
     * Claims and runs one prefill iteration. A prompt whose KV does not
     * fit ends the claim with one deferred_admissions — admitting later
     * ones would starve it — unless @p force_admit pushes the first
     * member through (spilling). Returns false, having run nothing,
     * when that left the claim empty.
     */
    bool run_prefill_iteration(ClaimMode mode, bool force_admit = false);
    /// One decode iteration. kAll fills the persistent running batch;
    /// a nested one (kHighOnly, kUrgent) claims a mini batch whose
    /// survivors go back to their queues.
    void run_decode_iteration(ClaimMode mode);
    /// Writes the report's roll-ups.
    void finalize();

  private:
    /// One prefill claim: the members and, parallel to them, the prompt
    /// tokens each ingests (the prompt, its residual past a cached
    /// prefix, or one chunk); their sum and maximum; the longest ingest
    /// with no prefix cached (what prefill_tokens_saved compares
    /// against); the KV stalls.
    struct PrefillClaim {
        std::vector<int> members;
        std::vector<int> residuals;
        int64_t tokens = 0;
        int len = 1;
        int full_len = 1;
        KvStall stall;
    };

    /// The per-member ingest step of a prefill claim: prefix
    /// resolution on a first claim, the chunk advance, tail KV growth.
    void ingest_prompt(int r, PrefillClaim& c);
    /// begin/step/finish one program for @p members and account it. A
    /// kAll iteration with no high-priority member watches for
    /// preemption; a nested one (@p nested) never does.
    void execute(std::shared_ptr<const sim::SimProgram> program,
                 const std::vector<int>& members, bool decode, bool nested);
    /// Parks the running iteration, serves queued high-priority work
    /// (or a deadline trigger beating @p victim_deadline) for one
    /// nested iteration, resumes; returns the wall seconds consumed.
    double preempt_for_high(double victim_deadline);
    /// Charges @p s as idle-clock stalls before an iteration.
    void charge_kv(const KvStall& s);
    /// Per-iteration accounting of result @p r over @p duration wall
    /// seconds (interrupting iterations excluded, so durations partition
    /// the makespan). Means are order-sensitive: this mirrors the plain
    /// serve() loop exactly.
    void account(const sim::SimResult& r, double duration, bool decode,
                 bool nested);
    /// Latency, lateness and tenant misses of a completed request.
    void record_completion(int r);

    const sim::Machine& machine_;
    const ServerOptions& opts_;
    const std::vector<Request>& requests_;
    const Server::PrefillProgramSource& prefill_src_;
    const Server::ProgramSource& decode_src_;
    WaitQueues& queues_;
    KvLedger& ledger_;
    ServingReport& rep_;
    sim::EngineState state_;
    double now_ = 0.0;

    std::vector<int> running_;  ///< decode batch (request indices).
    std::vector<int> tokens_left_;
    /// Per request: prompt tokens still to ingest (-1 = not claimed).
    std::vector<int> pre_left_;
    bool chunk_yield_ = false;
    size_t completed_ = 0;
    std::vector<double> latencies_;  ///< per request, arrival order.
    std::vector<double> high_latencies_;
    std::vector<double> ttfts_;
    /// Per-completion lateness (>= 0 seconds), deadline carriers only.
    std::vector<double> latenesses_;

    bool budget_set_ = false;
    util::WeightedMean depth_mean_;
    util::WeightedMean hbm_mean_;
    util::WeightedMean noc_mean_;
    util::WeightedMean kv_mean_;
    double steady_preload_sum_ = 0.0;
    int steady_iterations_ = 0;
    /// Prefill iterations per (prompt_len, batch) bucket, in the order
    /// the report lists them.
    std::map<std::pair<int, int>, int> bucket_iters_;
    /// Member lists kept across iterations, so none allocates: the
    /// prefill claims of a kAll and of a nested iteration (the park
    /// depth is at most one), and the nested decode mini batch.
    PrefillClaim claims_[2];
    std::vector<int> mini_;
};

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_ITERATION_EXECUTOR_H
