/**
 * @file
 * Analytic traffic-pattern analysis over a Topology.
 *
 * The flow-level simulator and the compiler's cost model both need the
 * *effective* bandwidth a traffic pattern can sustain on a given
 * interconnect: on an all-to-all fabric only the endpoint links matter,
 * while on a mesh the bisection and the links around the HBM attach
 * points become bottlenecks. TrafficModel computes, once per topology,
 * the per-unit bottleneck load of the two canonical patterns Elk
 * generates:
 *
 *  - peer exchange: every core exchanges data with peer cores
 *    (compute-shift rotation, data distribution, reduction);
 *  - HBM delivery: HBM controllers stream preload data to all cores.
 *
 * Loads are computed by routing the pattern over the actual links
 * (dimension-order routing on meshes) and taking the most-loaded link.
 */
#ifndef ELK_HW_TRAFFIC_H
#define ELK_HW_TRAFFIC_H

#include "hw/chip_config.h"
#include "hw/topology.h"

namespace elk::hw {

/**
 * Precomputed bottleneck factors of the canonical traffic patterns on
 * one chip. All capacities are chip-aggregate bytes/s.
 */
class TrafficModel {
  public:
    /// Analyzes @p topo (built from @p cfg). O(pairs * hops) once.
    TrafficModel(const Topology& topo, const ChipConfig& cfg);

    /**
     * Aggregate bytes/s all cores together can sustain when every core
     * exchanges data uniformly with peers.
     */
    double peer_exchange_capacity() const { return peer_capacity_; }

    /**
     * Aggregate bytes/s the HBM controllers can deliver into cores'
     * SRAM (counting replicated broadcast bytes, which each occupy the
     * controller injection links separately, paper §2.1).
     */
    double hbm_delivery_capacity() const { return hbm_capacity_; }

    /// Time to deliver @p total_bytes from HBM controllers to cores.
    double
    hbm_delivery_time(double total_bytes) const
    {
        return total_bytes / hbm_capacity_ + latency_;
    }

    /// Mean route hop count of uniform core-to-core traffic.
    double avg_hops() const { return avg_hops_; }

    /// One-way link latency of the underlying fabric.
    double link_latency() const { return latency_; }

  private:
    double peer_capacity_ = 0.0;
    double hbm_capacity_ = 0.0;
    double avg_hops_ = 1.0;
    double latency_ = 0.0;
};

}  // namespace elk::hw

#endif  // ELK_HW_TRAFFIC_H
