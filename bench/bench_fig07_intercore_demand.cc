/**
 * @file
 * Paper Fig. 7: per-core inter-core bandwidth demand across time
 * under MinPreload vs MaxPreload preload-state policies (HBM
 * controller-to-core delivery traffic excluded).
 *
 * Setup follows the paper: each operator uses the fastest
 * execute-state plan that fits the Static execution space (budget
 * minus a 256 KB preload region); MinPreload scatters shared data and
 * exchanges it at execution time, MaxPreload broadcasts as much as
 * fits the region at preload time. Shape to hold: MaxPreload
 * significantly reduces the inter-core traffic demand.
 */
#include "bench_common.h"
#include "util/stats.h"

int
main(int argc, char** argv)
{
    using namespace elk;
    const int n_jobs = bench::jobs(argc, argv);
    auto cfg = hw::ChipConfig::ipu_pod4();
    const uint64_t region = 256ull * 1024;
    const uint64_t exec_budget = cfg.usable_sram_per_core() - region;

    util::Table table({"model", "policy", "mean(GB/s)", "p95(GB/s)",
                       "max(GB/s)"});
    util::Table series({"model", "policy", "time(ms)", "demand(GB/s)"});

    std::vector<graph::ModelConfig> models = {
        graph::llama2_13b(), graph::gemma2_27b(), graph::opt_30b()};

    for (const auto& model : models) {
        auto graph = graph::build_decode_graph(model, 32, 2048);
        compiler::Compiler comp(graph, cfg, nullptr, n_jobs);
        for (bool max_preload : {false, true}) {
            std::vector<double> demand;
            double t = 0.0;
            for (const auto& op : graph.ops()) {
                int exec_idx = 0;
                const auto& exec = bench::static_exec_plan(
                    comp.library(), op.id, exec_budget, &exec_idx);
                const auto& pre =
                    bench::policy_preload(comp.library(), op.id, exec_idx,
                                          max_preload, region);
                // Per-core inter-core bytes during this operator
                // (execution-time fetches plus distribution), divided
                // by the per-core execution (compute) time — demand,
                // not achieved throughput, so it may exceed the
                // 5.5 GB/s link speed exactly as in the paper.
                double bytes = exec.fetch_bytes + exec.reduce_bytes +
                               pre.distribute_bytes;
                double window = exec.compute_time;
                demand.push_back(bytes / window / 1e9);
                t += exec.exec_time + pre.distribute_time;
                if (op.id % std::max(1, graph.size() / 24) == 0) {
                    series.add(model.name,
                               max_preload ? "MaxPreload" : "MinPreload",
                               t * 1e3, demand.back());
                }
            }
            table.add(model.name,
                      max_preload ? "MaxPreload" : "MinPreload",
                      util::mean(demand), util::percentile(demand, 95),
                      util::percentile(demand, 100));
        }
    }

    table.print("Fig. 7: per-core inter-core bandwidth demand");
    series.print("Fig. 7: demand-over-time series (downsampled)");
    table.write_csv("fig07_intercore_demand");
    series.write_csv("fig07_intercore_series");
    return 0;
}
