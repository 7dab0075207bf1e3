/**
 * @file
 * The serving scheduler's KV ledger (one part of DisaggRun, server.cc):
 * each request's private-tail segment and each prefix id's shared
 * segment (the prefix cache) in the engine's residency pool, which the
 * caller passes to every call. With kv_budget = 0 the ledger creates no
 * segment, so the pool stays empty and every prompt is admitted.
 */
#ifndef ELK_RUNTIME_KV_LEDGER_H
#define ELK_RUNTIME_KV_LEDGER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/server.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace elk::runtime {

/// Prompt tokens the next claim of a prompt with @p remaining tokens
/// left ingests: one @p chunk under chunked prefill (chunk > 0), else
/// all of them.
inline int
chunk_of(int remaining, int chunk)
{
    return chunk > 0 ? std::min(chunk, remaining) : remaining;
}

/// KV streams to charge as idle-clock stalls before an iteration.
struct KvStall {
    int64_t stream_tokens = 0;  ///< tokens streamed back from HBM.
    double migrate = 0.0;  ///< router-priced interconnect seconds.
};

class KvLedger {
  public:
    /// @p requests must be validated.
    KvLedger(const sim::Machine& machine, const ServerOptions& opts,
             const std::vector<Request>& requests, ServingReport& rep);

    /// Whether prompt @p r, with @p remaining tokens left to ingest (-1
    /// before its first claim), fits next to the resident segments now,
    /// or could never fit (oversized segments are born spilled instead
    /// of deferred forever).
    bool admits(int r, int remaining, const sim::EngineState& pool) const
    {
        const uint64_t bytes = need(r, remaining, pool);
        return pool.kv_would_fit(bytes) || bytes > opts_.kv_budget;
    }

    /// A prompt's first claim: a prefix hit shares the cached segment
    /// and skips the covered tokens; the first carrier of a prefix seeds
    /// it, or imports it over the interconnect when migrating. Stream
    /// and migration stalls add to @p stall. Returns the prompt tokens
    /// left to ingest.
    int open_prompt(int r, KvStall& stall, sim::EngineState& pool);

    /// Grows @p r's private tail by the KV of @p tokens ingested tokens
    /// and pins it. Growth spills under pressure instead of deferring,
    /// so mid-prompt chunks cannot deadlock on backpressure.
    void ingest(int r, int tokens, sim::EngineState& pool);

    /// Gives every decode member a resident, pinned segment where
    /// possible (allocating arrivals', fetching spilled ones back);
    /// returns the streams to charge before the iteration.
    KvStall prepare(const std::vector<int>& members, sim::EngineState& pool);

    /// Whether @p r's own segment exists and is resident.
    bool resident(int r, const sim::EngineState& pool) const
    {
        return kv_tokens_[r] >= 0 && pool.kv_resident(r);
    }

    /// Releases the iteration pins @p r holds on its private tail and
    /// on its shared prefix.
    void release_pins(int r, sim::EngineState& pool);

    /// After a decode iteration: releases @p r's pins, then grows its
    /// tail by the decoded token or (@p completed) frees it.
    void retire(int r, bool completed, sim::EngineState& pool);

  private:
    /// Per-core bytes of @p tokens tokens of KV state.
    uint64_t kv_per_core(int64_t tokens) const
    {
        return (tokens * opts_.kv_bytes_per_token + cores_ - 1) / cores_;
    }
    /// Engine pool id of prefix population entry @p pid — negative, so
    /// the shared class never collides with per-request ids.
    static int64_t prefix_kv_id(int pid)
    {
        return -static_cast<int64_t>(pid) - 1;
    }
    /// Tokens of @p r's prompt the cached prefix covers now: the
    /// shorter of its own prefix span and the seeded segment. 0 = miss.
    int64_t prefix_covered(int r) const;
    /// KV bytes prompt @p r's next claim newly admits — the single
    /// source of truth behind admits(), so backpressure and claiming can
    /// never disagree.
    uint64_t need(int r, int remaining, const sim::EngineState& pool) const;
    /// Pins segment @p seg on behalf of @p r when it is resident and
    /// @p pinned says @p r holds no pin on it yet.
    void pin_resident(int64_t seg, std::vector<bool>& pinned, int r,
                      sim::EngineState& pool);
    /// Appends @p tokens tokens to @p r's private tail, allocating it on
    /// first use; cumulative rounding keeps it at kv_per_core(tokens).
    void append(int r, int64_t tokens, sim::EngineState& pool);

    const ServerOptions& opts_;
    const std::vector<Request>& requests_;
    ServingReport& rep_;
    const uint64_t cores_;

    /// Per request: tokens its private tail covers (-1 = no segment).
    std::vector<int64_t> kv_tokens_;
    /// Per request: a kv_pin is held on its tail / on its prefix.
    std::vector<bool> kv_pinned_;
    std::vector<bool> prefix_pinned_;
    /// Per request: prefix id it holds a kv_share on (-1 = none).
    std::vector<int> prefix_share_;
    /// Per prefix id: tokens of the seeded shared segment, 0 while
    /// unseeded.
    std::vector<int64_t> prefix_tokens_;
    /// Per request: ingest tokens left that append no tail KV (a missed
    /// prefix's span, whose KV the first claim seeded whole).
    std::vector<int> tail_skip_left_;
};

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_KV_LEDGER_H
