/**
 * @file
 * LLM serving walk-through: the serving API in one file. Each of the
 * five designs (Basic, Static, Elk-Dyn, Elk-Full, Ideal) compiles a
 * decode and a prefill program family over one shared plan cache and
 * serves the same mixed trace through runtime::Server; Elk-Full then
 * scales out to a 2-replica runtime::Cluster. Every knob is also an
 * `elkc serve` flag (docs/SERVING.md): this serve is `elkc serve
 * --batch 8 --seq 512 --requests 8 --tokens 2 --rate 500 --prefill-frac
 * 0.5 --high-frac 0.25 --prompt-dist geometric:64 --kv-budget 24`.
 *
 *   $ ./llm_serving
 */
#include <cstdio>
#include <string>
#include <vector>

#include "elk/plan_cache.h"
#include "elk/serving_compiler.h"
#include "graph/model_builder.h"
#include "runtime/cluster.h"
#include "runtime/metrics.h"
#include "runtime/server.h"
#include "util/table.h"

int
main()
{
    using namespace elk;
    constexpr int kSeq = 512;
    const hw::ChipConfig chip = hw::ChipConfig::ipu_pod4();
    const graph::ModelConfig model = graph::llama2_13b();

    // 1. The trace: 8 Poisson arrivals at 500 req/s, 2 decode tokens
    //    each. Half arrive as prompts to prefill first, with geometric
    //    lengths of mean 64; a quarter are high priority and preempt
    //    normal iterations at the next operator boundary.
    std::vector<runtime::Request> trace = runtime::make_request_trace(
        runtime::ArrivalTrace::poisson(8, 500.0, /*seed=*/42),
        /*decode_tokens=*/2, /*prefill_frac=*/0.5, /*high_frac=*/0.25,
        /*seed=*/42);
    runtime::tag_prompt_lengths(trace, kSeq, /*mean_len=*/64.0,
                                /*seed=*/42);

    // 2. The server: decode batches of up to 8, and a 24 KB/core KV
    //    budget, so request KV competes with resident weights in SRAM
    //    and backpressures prompt admission once it is full.
    runtime::ServerOptions sopts;
    sopts.max_batch = 8;
    sopts.tokens_per_request = 2;
    sopts.max_prompt_len = kSeq;
    sopts.kv_budget = 24 * 1024;
    sopts.kv_bytes_per_token = graph::kv_bytes_per_token(model);
    std::printf("Serving %s, batch %d, seq %d on %d cores: %d requests, "
                "KV budget %llu KB/core\n",
                model.name.c_str(), sopts.max_batch, kSeq,
                chip.total_cores(), static_cast<int>(trace.size()),
                static_cast<unsigned long long>(sopts.kv_budget / 1024));

    // 3. Compile and serve every design. The prefill family takes its
    //    own op-id namespace, so both families share one residency
    //    pool; buckets compile lazily, the first time a serve asks.
    compiler::PlanCache cache;
    util::Table table({"design", "p50(ms)", "p95(ms)", "p99(ms)",
                       "ttft p95(ms)", "tokens/s", "hbm_util",
                       "preempts", "padded_tok", "kv_peak(KB)",
                       "deferred", "steady preload(ms)"});
    std::string cluster_summary;
    for (auto mode : {compiler::Mode::kBasic, compiler::Mode::kStatic,
                      compiler::Mode::kElkDyn, compiler::Mode::kElkFull,
                      compiler::Mode::kIdeal}) {
        compiler::CompileOptions copts;
        copts.mode = mode;
        compiler::ServingCompiler decode(model, kSeq, chip, copts, &cache);
        compiler::ServingCompiler prefill(
            model, kSeq, chip, copts, &cache, /*jobs=*/1,
            compiler::ServingCompiler::Options::prefill());
        auto prefill_programs = [&](int b, int len) {
            return prefill.program(b, len);
        };
        auto decode_programs = [&](int b) { return decode.program(b); };

        runtime::Server server(decode.machine(), sopts);
        runtime::ServingReport rep =
            server.serve(trace, prefill_programs, decode_programs);
        table.add(decode.mode(), runtime::ms(rep.p50_latency),
                  runtime::ms(rep.p95_latency),
                  runtime::ms(rep.p99_latency), runtime::ms(rep.p95_ttft),
                  rep.tokens_per_s, runtime::pct(rep.hbm_util),
                  rep.preemptions, rep.padded_prompt_tokens,
                  rep.kv_bytes_peak / 1024, rep.deferred_admissions,
                  runtime::ms(rep.steady_decode_preload));

        // 4. Scale out: two replicas of the chip behind the default
        //    round-robin router, sharing the same program families.
        if (mode == compiler::Mode::kElkFull) {
            runtime::ClusterOptions clopts;
            clopts.replicas = 2;
            clopts.server = sopts;
            runtime::Cluster cluster(decode.machine(), clopts);
            cluster_summary =
                cluster.serve(trace, prefill_programs, decode_programs)
                    .summary();
        }
    }
    table.print("serving tail latency / goodput per design");
    std::printf("\nElk-Full on 2 replicas\n%s\n", cluster_summary.c_str());
    std::printf("\nplan cache: %d entries\n", cache.stats().entries);
    return 0;
}
