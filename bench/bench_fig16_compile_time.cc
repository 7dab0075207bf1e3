/**
 * @file
 * Paper Fig. 16: Elk compilation time for varied models and batch
 * sizes (2-64). The paper compiles an IPU-POD4 plan for an LLM within
 * minutes on a 32-core CPU (Python implementation); this C++
 * implementation is faster, but the shape — sub-linear growth of the
 * search space with model/batch size — must hold.
 *
 * Usage: bench_fig16_compile_time [--jobs N]
 *
 * N > 1 fans the plan-library build and the preload-order scoring out
 * over the work-stealing pool; the emitted ExecutionPlan is
 * bit-identical to --jobs 1 (pipeline_test verifies this), so wall
 * clock is the only difference. wall(s) measures hardware analysis +
 * plan library + scheduling end to end; compile(s) is the scheduling
 * portion (CompileResult::compile_seconds). candidates_scheduled counts
 * the schedule-elk tuning candidates actually scheduled (out of 40);
 * exec_points the feasible execute plans the plan library enumerated,
 * tied_fronts the execute fronts whose exact (space, time) tie needed
 * the sort, frontiers_tested the candidate preload frontiers the
 * inductive scheduler priced over every schedule() of the compile, and
 * allocator_calls those of them whose floors overflowed SRAM, so the
 * allocator ran. They and every column but jobs, wall(s) and
 * compile(s) are deterministic.
 */
#include <chrono>

#include "bench_common.h"

int
main(int argc, char** argv)
{
    using namespace elk;
    auto cfg = hw::ChipConfig::ipu_pod4();
    const int jobs = bench::jobs(argc, argv);
    std::vector<int> batches = bench::fast_mode()
                                   ? std::vector<int>{8, 32}
                                   : std::vector<int>{2, 4, 8, 16, 32, 64};

    util::Table table({"model", "batch", "jobs", "wall(s)", "compile(s)",
                       "orders_tested", "candidates_scheduled", "N", "P",
                       "K", "exec_points", "tied_fronts",
                       "frontiers_tested", "allocator_calls"});

    for (const auto& model : bench::llm_models()) {
        for (int batch : batches) {
            auto graph = graph::build_decode_graph(model, batch, 2048);
            auto t0 = std::chrono::steady_clock::now();
            compiler::Compiler comp(graph, cfg, nullptr, jobs);
            compiler::CompileOptions opts;
            opts.mode = compiler::Mode::kElkFull;
            opts.max_orders = bench::fast_mode() ? 6 : 96;
            auto result = comp.compile(opts);
            auto t1 = std::chrono::steady_clock::now();
            double wall = std::chrono::duration<double>(t1 - t0).count();
            table.add(model.name, batch, comp.jobs(), wall,
                      result.compile_seconds, result.stats.orders_tested,
                      result.stats.candidates_scheduled, result.stats.n_ops,
                      result.stats.max_plans, result.stats.max_fit_window,
                      result.stats.exec_points, result.stats.tied_fronts,
                      result.stats.frontiers_tested,
                      result.stats.allocator_calls);
        }
    }

    table.print("Fig. 16: Elk-Full compile time vs model/batch size");
    table.write_csv("fig16_compile_time");
    return 0;
}
