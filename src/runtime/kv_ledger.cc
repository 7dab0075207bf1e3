#include "runtime/kv_ledger.h"

namespace elk::runtime {

KvLedger::KvLedger(const sim::Machine& machine, const ServerOptions& opts,
                   const std::vector<Request>& requests, ServingReport& rep)
    : opts_(opts),
      requests_(requests),
      rep_(rep),
      cores_(static_cast<uint64_t>(machine.config().total_cores())),
      kv_tokens_(requests.size(), -1),
      kv_pinned_(requests.size(), false),
      prefix_pinned_(requests.size(), false),
      prefix_share_(requests.size(), -1),
      tail_skip_left_(requests.size(), 0)
{
    int max_prefix = -1;
    for (const Request& r : requests) {
        max_prefix = std::max(max_prefix, r.prefix_id);
    }
    prefix_tokens_.assign(max_prefix + 1, 0);
}

int64_t
KvLedger::prefix_covered(int r) const
{
    const int pid = requests_[r].prefix_id;
    if (pid < 0 || prefix_tokens_[pid] == 0) {
        return 0;
    }
    return std::min(static_cast<int64_t>(requests_[r].prefix_len),
                    prefix_tokens_[pid]);
}

uint64_t
KvLedger::need(int r, int remaining, const sim::EngineState& pool) const
{
    if (remaining >= 0) {
        // A chunked prompt past its first chunk: admission gated on
        // the full need at the first chunk, so only the next chunk's
        // private-tail growth is new KV here.
        const int ingest = chunk_of(remaining, opts_.prefill_chunk);
        const int skip = std::min(tail_skip_left_[r], ingest);
        const int64_t tail_before = kv_tokens_[r] >= 0 ? kv_tokens_[r] : 0;
        return kv_per_core(tail_before + (ingest - skip)) -
               kv_per_core(tail_before);
    }
    const int64_t len =
        effective_prompt_len(requests_[r], opts_.max_prompt_len);
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
        if (!pool.kv_resident(pseg)) {
            bytes += pool.kv_segment_bytes(pseg);
        }
        return bytes;
    }
    // Miss: this prompt seeds the prefix segment next to its tail.
    const int64_t plen = requests_[r].prefix_len;
    return kv_per_core(len - plen) + kv_per_core(plen);
}

void
KvLedger::pin_resident(int64_t seg, std::vector<bool>& pinned, int r,
                       sim::EngineState& pool)
{
    if (!pinned[r] && pool.kv_resident(seg)) {
        pool.kv_pin(seg);
        pinned[r] = true;
    }
}

int
KvLedger::open_prompt(int r, KvStall& stall, sim::EngineState& pool)
{
    const Request& req = requests_[r];
    const int len = effective_prompt_len(req, opts_.max_prompt_len);
    int tail = len;
    int remaining = len;
    const int pid = req.prefix_id;
    if (pid >= 0) {
        const int64_t pseg = prefix_kv_id(pid);
        const int covered = static_cast<int>(prefix_covered(r));
        if (covered > 0) {
            ++rep_.prefix_hits;
            rep_.prefix_hit_tokens += covered;
            remaining = tail = len - covered;
            if (!pool.kv_resident(pseg)) {
                stall.stream_tokens += prefix_tokens_[pid];
                ++rep_.kv_refetches;
                pool.kv_fetch(pseg);
            }
        } else {
            // Miss: seed the shared segment at the request's full
            // prefix span. Migration is a miss whose segment arrives
            // over the cluster interconnect from the chip that holds
            // it: the covered tokens skip prefill like a hit, and the
            // wire transfer (priced by the router) stalls this chip
            // instead of a re-prefill.
            prefix_tokens_[pid] = req.prefix_len;
            tail = len - req.prefix_len;
            if (req.kv_migrate_tokens > 0) {
                ++rep_.prefix_hits;
                rep_.prefix_hit_tokens += req.prefix_len;
                ++rep_.kv_migrations;
                rep_.kv_migrated_tokens += req.prefix_len;
                stall.migrate += req.kv_migrate_stall;
                remaining = tail;
            }
            pool.kv_alloc(pseg, kv_per_core(req.prefix_len));
        }
        pool.kv_share(pseg);
        prefix_share_[r] = pid;
        // Pin the prefix for this iteration before the tail allocates,
        // so the tail cannot evict it.
        pin_resident(pseg, prefix_pinned_, r, pool);
    }
    tail_skip_left_[r] = remaining - tail;
    return remaining;
}

void
KvLedger::ingest(int r, int tokens, sim::EngineState& pool)
{
    if (opts_.kv_budget == 0) {
        return;
    }
    const int skip = std::min(tail_skip_left_[r], tokens);
    tail_skip_left_[r] -= skip;
    if (tokens > skip) {
        append(r, tokens - skip, pool);
        pin_resident(r, kv_pinned_, r, pool);
    }
}

KvStall
KvLedger::prepare(const std::vector<int>& members, sim::EngineState& pool)
{
    KvStall s;
    if (opts_.kv_budget == 0) {
        return s;
    }
    for (int r : members) {
        if (prefix_share_[r] >= 0) {
            // The shared prefix is read every iteration. It is brought
            // back (and pinned) before the private tail, so the tail's
            // own fetch can never evict it — eviction of a shared
            // prefix is priced as a refetch here for every sharer that
            // next consumes it.
            const int64_t pseg = prefix_kv_id(prefix_share_[r]);
            if (!pool.kv_resident(pseg)) {
                s.stream_tokens += prefix_tokens_[prefix_share_[r]];
                ++rep_.kv_refetches;
                pool.kv_fetch(pseg);
            }
            pin_resident(pseg, prefix_pinned_, r, pool);
        }
        if (kv_tokens_[r] < 0) {
            // Decode-phase arrival: its KV state exists elsewhere.
            // Untagged, it migrates in over local HBM (priced as a
            // refetch); tagged by the cluster router, it arrives over
            // the chip-to-chip interconnect and charges the carried
            // transfer stall instead.
            const int64_t ctx =
                effective_prompt_len(requests_[r], opts_.max_prompt_len);
            kv_tokens_[r] = ctx;
            if (requests_[r].kv_migrate_tokens > 0) {
                ++rep_.kv_migrations;
                rep_.kv_migrated_tokens += requests_[r].kv_migrate_tokens;
                s.migrate += requests_[r].kv_migrate_stall;
            } else {
                s.stream_tokens += ctx;
                ++rep_.kv_refetches;
            }
            pool.kv_alloc(r, kv_per_core(ctx));
        } else if (!pool.kv_resident(r)) {
            // Spilled under budget/pressure: stream it back.
            s.stream_tokens += kv_tokens_[r];
            ++rep_.kv_refetches;
            pool.kv_fetch(r);
        }
        pin_resident(r, kv_pinned_, r, pool);
    }
    return s;
}

void
KvLedger::release_pins(int r, sim::EngineState& pool)
{
    if (kv_pinned_[r]) {
        pool.kv_unpin(r);
        kv_pinned_[r] = false;
    }
    if (prefix_pinned_[r]) {
        pool.kv_unpin(prefix_kv_id(prefix_share_[r]));
        prefix_pinned_[r] = false;
    }
}

void
KvLedger::append(int r, int64_t tokens, sim::EngineState& pool)
{
    if (kv_tokens_[r] < 0) {
        kv_tokens_[r] = tokens;
        pool.kv_alloc(r, kv_per_core(tokens));
        return;
    }
    const uint64_t before = kv_per_core(kv_tokens_[r]);
    kv_tokens_[r] += tokens;
    pool.kv_grow(r, kv_per_core(kv_tokens_[r]) - before);
}

void
KvLedger::retire(int r, bool completed, sim::EngineState& pool)
{
    if (opts_.kv_budget == 0) {
        return;
    }
    release_pins(r, pool);
    if (!completed) {
        append(r, 1, pool);  // the decoded token
        return;
    }
    if (prefix_share_[r] >= 0) {
        // Drop the share; the segment itself stays cached for future
        // carriers of the prefix (that is the cache).
        pool.kv_release(prefix_kv_id(prefix_share_[r]));
        prefix_share_[r] = -1;
    }
    pool.kv_free(r);
    kv_tokens_[r] = -1;
}

}  // namespace elk::runtime
