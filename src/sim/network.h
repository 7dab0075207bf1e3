/**
 * @file
 * Fluid flow network with weighted max-min fair bandwidth sharing.
 *
 * The simulator models the chip's shared resources (HBM DRAM bandwidth
 * and the interconnect fabric) as capacity pools. A flow moves a byte
 * volume and consumes each resource proportionally to a per-resource
 * weight: a flow progressing at rate r (bytes/s) uses r * weight of a
 * resource's capacity. Weights encode traffic-pattern efficiency: an
 * HBM broadcast with replication rho consumes the fabric at rho times
 * its unique-byte rate; a peer-exchange flow on a mesh consumes
 * 1/pattern-capacity per byte (paper §5: per-link sequential service,
 * summarized by the TrafficModel's bottleneck analysis).
 *
 * Rates are assigned by progressive filling (weighted max-min): all
 * unfixed flows grow at equal rates until a resource saturates; its
 * flows freeze; repeat. When preload delivery and inter-core exchange
 * are simultaneously active on the fabric, both slow down — the
 * interconnect-contention behaviour of paper Fig. 2 (tussle 2).
 *
 * assign_rates() runs on every flow arrival and completion — it is
 * the single hottest loop of the whole simulator — so the network is
 * built around two representation choices. First, a flow's weights
 * are a small dense array (FlowWeights) indexed by resource, not an
 * associative container: a zero entry means "does not use the
 * resource", and every present weight is validated positive at
 * construction, which keeps the dense scan's skip-zero behaviour
 * exactly equivalent to the absent-key semantics the progressive
 * filling relies on (a flow only freezes on resources it uses).
 * Second, completed flows never get scanned again: an ascending list
 * of active flow ids drives every per-event loop, so the cost of an
 * event is O(active flows) rather than O(flows ever added) — the
 * table itself only grows so that FlowIds stay stable for callers.
 */
#ifndef ELK_SIM_NETWORK_H
#define ELK_SIM_NETWORK_H

#include <cstdint>
#include <initializer_list>
#include <map>
#include <utility>
#include <vector>

namespace elk::sim {

/// Flow identifier returned by FluidNetwork::add_flow.
using FlowId = int;

/// Category tag used for utilization attribution.
enum class FlowTag {
    kHbmPreload,   ///< HBM DRAM read + controller-to-core delivery.
    kDistribute,   ///< preload-to-execute state data distribution.
    kExecFetch,    ///< on-demand inter-core fetch during execution.
};

/// Resource indices used by the machine model.
struct Resources {
    static constexpr int kHbmDram = 0;  ///< aggregate DRAM bandwidth.
    static constexpr int kFabric = 1;   ///< interconnect fabric (normalized).
    static constexpr int kCount = 2;
};

/**
 * Dense per-resource weights of one flow. Index = resource, value =
 * capacity consumed per byte/s of flow rate; zero = the flow does not
 * use the resource (the old map's absent key). Sized for every
 * machine layout (two resources, plus the Ideal split fabric's
 * third); constructing an entry at or above kMaxResources, a
 * non-positive entry, or a duplicate entry panics.
 */
class FlowWeights {
  public:
    /// Upper bound on resource indices across all machine layouts.
    static constexpr int kMaxResources = 4;

    FlowWeights() = default;

    /// From explicit (resource, weight) pairs:
    /// `{{Resources::kHbmDram, 1.0}, {fabric, rho}}`.
    FlowWeights(std::initializer_list<std::pair<int, double>> init);

    /// From the associative form (implicit: pre-dense call sites and
    /// tests pass std::map).
    FlowWeights(const std::map<int, double>& weights);

    /// Weight on @p resource; 0 when the flow does not use it.
    double
    operator[](int resource) const
    {
        return w_[resource];
    }

    /// Highest resource index with a non-zero weight; -1 when empty.
    int max_resource() const;

  private:
    void set(int resource, double weight);

    double w_[kMaxResources] = {0.0, 0.0, 0.0, 0.0};
};

/// One active flow.
struct Flow {
    double remaining = 0.0;  ///< bytes left.
    double rate = 0.0;       ///< current bytes/s (assigned).
    FlowWeights weights;     ///< resource -> usage per byte/s.
    FlowTag tag = FlowTag::kHbmPreload;
    bool active = true;
};

/**
 * The fluid network: tracks active flows, assigns max-min fair rates,
 * and advances simulated time to flow completions.
 */
class FluidNetwork {
  public:
    /// Creates a network with the given per-resource capacities.
    explicit FluidNetwork(std::vector<double> capacities);

    /// Adds a flow of @p bytes with resource @p weights; returns its id.
    FlowId add_flow(double bytes, FlowWeights weights, FlowTag tag);

    /// True while the flow has bytes remaining.
    bool flow_active(FlowId id) const;

    /// Current rate of a flow (bytes/s).
    double flow_rate(FlowId id) const;

    /// Seconds until the earliest active flow completes; +inf if none.
    double time_to_next_completion() const;

    /**
     * Advances all active flows by @p dt seconds at their current
     * rates, deactivating flows that complete (remaining <= epsilon).
     */
    void advance(double dt);

    /// Sum over active flows with @p tag of rate * weight[resource].
    double resource_usage(int resource, FlowTag tag) const;

    /// Total usage of @p resource across all active flows.
    double resource_usage(int resource) const;

    /// Capacity of @p resource.
    double capacity(int resource) const { return capacities_[resource]; }

    /// Number of currently active flows.
    int num_active() const;

    /// Drops every flow (ids restart at 0) but keeps the capacities
    /// and the table's allocations — how one network object serves
    /// back-to-back programs without reallocating per program.
    void reset_flows();

    /// Sizes the flow table for @p n flows in all, so add_flow() does
    /// not regrow it before the n-th flow.
    void reserve_flows(int n);

  private:
    /// Recomputes all rates by progressive filling.
    void assign_rates();

    std::vector<double> capacities_;
    std::vector<Flow> flows_;
    // Ids of the active flows, ascending. Completed flows stay in
    // flows_ (ids are indices) but drop out of this list, so every
    // per-event scan costs O(active) instead of O(all flows ever
    // added). Ascending order keeps each floating-point accumulation
    // summing the same terms in the same order as a full-table scan.
    std::vector<FlowId> active_ids_;
    // assign_rates() scratch, kept across calls so the hot loop never
    // allocates once the high-water mark is reached.
    std::vector<int> unfixed_;
    std::vector<int> next_unfixed_;
    std::vector<double> left_;
};

}  // namespace elk::sim

#endif  // ELK_SIM_NETWORK_H
