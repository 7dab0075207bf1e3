/**
 * @file
 * Paper Fig. 8: total per-core interconnect bandwidth demand —
 * inter-core exchange over the execution window plus HBM-to-core
 * delivery over the (physical) preload window — under MinPreload vs
 * MaxPreload.
 *
 * Setup matches Fig. 7 (Static execution space, 256 KB preload
 * region). The preload window is the operator's actual preload
 * duration: max of the DRAM roofline and the fabric delivery time, so
 * broadcast replication stretches the window rather than producing
 * impossible per-core rates. Shape to hold: MinPreload concentrates
 * all sharing traffic in execution windows (drastic fluctuation);
 * MaxPreload spreads traffic across preload and execution windows,
 * reducing the fluctuation of the total-demand series.
 */
#include <algorithm>

#include "bench_common.h"
#include "cost/hbm_cost.h"
#include "util/stats.h"

int
main(int argc, char** argv)
{
    using namespace elk;
    const int n_jobs = bench::jobs(argc, argv);
    auto cfg = hw::ChipConfig::ipu_pod4();
    const uint64_t region = 256ull * 1024;
    const uint64_t exec_budget = cfg.usable_sram_per_core() - region;

    util::Table table({"model", "policy", "mean(GB/s)", "max(GB/s)",
                       "stdev(GB/s)", "fluctuation(stdev/mean)"});

    std::vector<graph::ModelConfig> models = {
        graph::llama2_13b(), graph::gemma2_27b(), graph::opt_30b()};

    for (const auto& model : models) {
        auto graph = graph::build_decode_graph(model, 32, 2048);
        compiler::Compiler comp(graph, cfg, nullptr, n_jobs);
        sim::Machine machine(cfg);
        for (bool max_preload : {false, true}) {
            // Two interleaved window series: each operator contributes
            // an execution window carrying its inter-core exchange and
            // a preload window carrying its fabric delivery.
            std::vector<double> demand;
            for (const auto& op : graph.ops()) {
                int exec_idx = 0;
                const auto& exec = bench::static_exec_plan(
                    comp.library(), op.id, exec_budget, &exec_idx);
                const auto& pre =
                    bench::policy_preload(comp.library(), op.id, exec_idx,
                                          max_preload, region);
                double cores = static_cast<double>(
                    std::max<long>(1, exec.cores_used()));

                // Inter-core demand over the pure compute window
                // (paper: inter-core volume / per-core exec time).
                double inter_bytes = exec.fetch_bytes +
                                     exec.reduce_bytes +
                                     pre.distribute_bytes;
                demand.push_back(inter_bytes / exec.compute_time / 1e9);

                // Delivery demand over the HBM load window (paper:
                // HBM-to-core volume / HBM load time). Broadcast
                // replication stretches the load window through the
                // controllers' injection links, so the window is the
                // max of the DRAM roofline and the fabric delivery.
                if (op.hbm_bytes() > 0) {
                    double per_core_recv = pre.noc_delivery_bytes / cores;
                    double window = std::max(
                        {cost::hbm_load_time(
                             static_cast<double>(op.hbm_bytes()), cfg),
                         pre.noc_delivery_bytes /
                             machine.delivery_capacity(),
                         // a core's inbound link caps its receive rate
                         per_core_recv / cfg.inter_core_link_bw});
                    demand.push_back(per_core_recv / window / 1e9);
                }
            }
            table.add(model.name,
                      max_preload ? "MaxPreload" : "MinPreload",
                      util::mean(demand), util::percentile(demand, 100),
                      util::stdev(demand),
                      util::stdev(demand) / util::mean(demand));
        }
    }

    table.print(
        "Fig. 8: total per-core interconnect demand (exchange + HBM "
        "delivery windows)");
    table.write_csv("fig08_total_noc_demand");
    return 0;
}
