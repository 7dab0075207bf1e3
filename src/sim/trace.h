/**
 * @file
 * Interval trace recorded by the simulator: per-operator phase timings
 * plus time-integrated resource usage, from which the paper's latency
 * breakdown (Fig. 18a/20: preload / execute / overlapped /
 * interconnect) and utilization figures are computed.
 */
#ifndef ELK_SIM_TRACE_H
#define ELK_SIM_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace elk::sim {

/// Phase timestamps of one operator (seconds from program start).
struct OpTiming {
    int op_id = -1;
    double pre_start = 0.0;
    double pre_end = 0.0;
    double exec_start = 0.0;  ///< includes the distribution phase.
    double exec_end = 0.0;
};

/// Aggregated result of one simulated program run.
struct SimResult {
    double total_time = 0.0;
    std::vector<OpTiming> timing;  ///< by execution order.

    // --- latency breakdown (paper Fig. 18a) ---
    double preload_only = 0.0;   ///< HBM loading, cores idle.
    double execute_only = 0.0;   ///< cores busy, HBM idle.
    double overlapped = 0.0;     ///< both busy.
    double interconnect_stall = 0.0;  ///< stretch caused by fabric
                                      ///< contention (subset of the
                                      ///< above buckets).

    // --- resource utilization (paper Fig. 18b-d) ---
    double hbm_util = 0.0;        ///< mean DRAM bandwidth fraction.
    double noc_util = 0.0;        ///< mean fabric usage fraction.
    double noc_util_preload = 0.0;///< fabric share used by preload.
    double noc_util_peer = 0.0;   ///< fabric share used by inter-core.
    double achieved_tflops = 0.0; ///< total FLOPs / total time / 1e12.

    // --- memory accounting ---
    uint64_t peak_sram_per_core = 0;
    bool memory_exceeded = false;

    /// One-line summary for logs.
    std::string summary() const;

    /**
     * Exact byte-level serialization of every field (doubles as IEEE
     * bit patterns). Two results serialize identically iff they are
     * bit-identical — the check the resumable engine and the serving
     * runtime use to prove determinism (step-driven == one-shot,
     * --jobs N == --jobs 1).
     */
    std::string serialize_bits() const;
};

}  // namespace elk::sim

#endif  // ELK_SIM_TRACE_H
