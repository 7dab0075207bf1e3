/**
 * @file
 * Perf-refactor invariance tests: the hot-path rebuild (flat
 * residency/KV pools, the active-flow list in FluidNetwork, the
 * server's scratch-pool claiming, the sort-once percentile path, and
 * the shared-lock program lookup) must not move a single bit of any
 * simulated result. Three serving workloads — closed-loop decode, the
 * length-skewed varlen trace, and the KV-budget trace — are served
 * across all five design modes and their serialize_bits compared
 * between compiler jobs = 1 and jobs = 4, between a cold and a warm
 * (memoized) compiler, and between repeated runs on one compiler. A
 * model-based KV pool test churns a seeded op sequence against an
 * independent per-segment byte ledger so the engine's O(1) resident
 * counter is checked against external bookkeeping in Release builds
 * too (the debug assert only covers -DNDEBUG-off).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/server.h"
#include "sim/engine.h"
#include "test_helpers.h"

namespace elk {
namespace {

constexpr int kSeq = 128;
constexpr int kRequests = 12;
constexpr int kTokens = 3;

const std::vector<compiler::Mode> kModes = {
    compiler::Mode::kBasic, compiler::Mode::kStatic,
    compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
    compiler::Mode::kIdeal};

/// The three workloads the perf harness times, at test scale.
enum class Workload { kClosedDecode, kVarlen, kKv };

/// One serve of @p workload in @p mode with compiler parallelism
/// @p jobs, against @p cache (shared caches memoize across calls —
/// exactly how the harness and the servers reuse a warm grid).
runtime::ServingReport
serve_workload(Workload workload, compiler::Mode mode, int jobs,
               compiler::PlanCache* cache)
{
    graph::ModelConfig model = testing::tiny_llm();
    hw::ChipConfig chip = testing::tiny_chip();
    compiler::CompileOptions copts;
    copts.mode = mode;
    copts.max_orders = 6;
    compiler::ServingCompiler decode(model, kSeq, chip, copts, cache,
                                     jobs);
    compiler::ServingCompiler prefill(
        model, kSeq, chip, copts, cache, jobs,
        compiler::ServingCompiler::Options::prefill());

    runtime::ServerOptions opts;
    opts.max_batch = 4;
    opts.tokens_per_request = kTokens;
    if (workload == Workload::kClosedDecode) {
        runtime::Server server(decode.machine(), opts);
        return server.serve(
            runtime::ArrivalTrace::closed_loop(kRequests),
            [&](int b) { return decode.program(b); });
    }
    opts.max_prefill_batch = 2;
    opts.max_prompt_len = kSeq;
    opts.prompt_buckets = {kSeq / 8, kSeq / 2, kSeq};
    if (workload == Workload::kKv) {
        opts.kv_budget = chip.usable_sram_per_core() / 8;
        opts.kv_bytes_per_token = graph::kv_bytes_per_token(model);
    }
    auto trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(kRequests, 400.0, /*seed=*/19),
        kTokens, /*prefill_frac=*/1.0, /*high_frac=*/0.0, /*seed=*/19);
    runtime::tag_prompt_lengths(trace, kSeq, kSeq / 8.0, /*seed=*/19);
    runtime::Server server(decode.machine(), opts);
    return server.serve(
        trace, [&](int b, int len) { return prefill.program(b, len); },
        [&](int b) { return decode.program(b); });
}

// ---------------------------------------------------------------------------
// serialize_bits is invariant across --jobs and across cache warmth

TEST(PerfInvarianceTest, JobsOneAndFourBitIdenticalAllModesAllWorkloads)
{
    for (Workload w :
         {Workload::kClosedDecode, Workload::kVarlen, Workload::kKv}) {
        for (compiler::Mode mode : kModes) {
            compiler::PlanCache cache1;
            compiler::PlanCache cache4;
            std::string serial =
                serve_workload(w, mode, /*jobs=*/1, &cache1)
                    .serialize_bits();
            std::string parallel =
                serve_workload(w, mode, /*jobs=*/4, &cache4)
                    .serialize_bits();
            EXPECT_EQ(serial, parallel)
                << "workload " << static_cast<int>(w) << " mode "
                << compiler::mode_name(mode);
        }
    }
}

TEST(PerfInvarianceTest, WarmCacheAndRepeatRunsBitIdentical)
{
    // A shared PlanCache memoizes plans across the cold and warm
    // serves; the warm run exercises the lookup fast path the
    // refactor moved behind a shared (reader) lock.
    for (Workload w :
         {Workload::kClosedDecode, Workload::kVarlen, Workload::kKv}) {
        compiler::PlanCache cache;
        std::string cold =
            serve_workload(w, compiler::Mode::kElkFull, /*jobs=*/2,
                           &cache)
                .serialize_bits();
        std::string warm =
            serve_workload(w, compiler::Mode::kElkFull, /*jobs=*/2,
                           &cache)
                .serialize_bits();
        EXPECT_EQ(cold, warm)
            << "workload " << static_cast<int>(w);
    }
}

// ---------------------------------------------------------------------------
// The flat KV pool against an independent byte ledger

TEST(PerfInvarianceTest, KvPoolMatchesExternalLedgerUnderSeededChurn)
{
    sim::Machine machine(testing::tiny_chip());
    sim::EngineState::Options opts;
    opts.kv_budget = 96 * 1024;
    sim::EngineState state(machine, opts);

    // Ledger: per live segment, its current per-core bytes. Residency
    // decisions stay the engine's; the ledger only asserts that byte
    // accounting (grow accumulation, the resident-byte counter behind
    // kv_would_fit, and the occupancy total) never drifts.
    std::map<int64_t, uint64_t> ledger;
    std::mt19937_64 rng(0xe1c0ffee5eedULL);
    int64_t next_id = 0;
    for (int op = 0; op < 4000; ++op) {
        const uint64_t r = rng();
        switch (r % 4) {
        case 0: {  // allocate a fresh segment
            const uint64_t bytes = (r / 7 % 24 + 1) * 1024;
            state.kv_alloc(next_id, bytes);
            ledger[next_id] = bytes;
            ++next_id;
            break;
        }
        case 1: {  // grow the youngest live segment
            if (!ledger.empty()) {
                auto it = std::prev(ledger.end());
                const uint64_t delta = (r / 11 % 4 + 1) * 512;
                state.kv_grow(it->first, delta);
                it->second += delta;
            }
            break;
        }
        case 2: {  // fetch + free the oldest live segment
            if (!ledger.empty()) {
                auto it = ledger.begin();
                if (!state.kv_resident(it->first)) {
                    state.kv_fetch(it->first);
                }
                state.kv_free(it->first);
                ledger.erase(it);
            }
            break;
        }
        default: {  // pin/unpin cycle on the youngest (residency ref)
            if (!ledger.empty()) {
                auto it = std::prev(ledger.end());
                if (state.kv_resident(it->first)) {
                    state.kv_pin(it->first);
                    state.kv_unpin(it->first);
                }
            }
            break;
        }
        }
        // Per-segment bytes and the resident-byte counter must agree
        // with the ledger after every op.
        uint64_t resident = 0;
        for (const auto& [id, bytes] : ledger) {
            ASSERT_EQ(state.kv_segment_bytes(id), bytes)
                << "op " << op << " id " << id;
            if (state.kv_resident(id)) {
                resident += bytes;
            }
        }
        ASSERT_EQ(state.kv_bytes(), resident) << "op " << op;
        ASSERT_EQ(state.kv_segments(),
                  static_cast<int>(ledger.size()))
            << "op " << op;
        // The O(1) admission probe equals the ledger-derived answer.
        const uint64_t probe = 8 * 1024;
        ASSERT_EQ(state.kv_would_fit(probe),
                  resident + probe <= opts.kv_budget)
            << "op " << op;
    }
}

}  // namespace
}  // namespace elk
