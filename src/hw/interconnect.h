/**
 * @file
 * Chip-to-chip interconnect cost model for cluster-scale serving.
 *
 * Where hw::Topology models the fabric *inside* one ICCA chip (cores,
 * HBM controllers, per-link capacities), this models the fabric
 * *between* chips of a serving cluster: N replica nodes connected as a
 * ring or a full mesh, with a per-hop latency and a per-link byte
 * bandwidth. The runtime cluster router uses it to price KV-segment
 * migration — a transfer from the chip that holds a request's KV state
 * to the chip the request was routed to stalls the destination chip's
 * clock for transfer_seconds(), the cross-chip analogue of the
 * HBM-refetch stall KvLedger::prepare charges on one chip.
 *
 * The model is deliberately fluid (no per-message queueing): a
 * transfer of B bytes over h hops costs h * hop_latency_s + B /
 * link_bw seconds, the same store-and-forward-free cut-through
 * approximation the paper's NoC model applies on chip. Like every
 * other cost model in the simulator it is deterministic: equal inputs
 * give bit-equal seconds.
 */
#ifndef ELK_HW_INTERCONNECT_H
#define ELK_HW_INTERCONNECT_H

#include <cstdint>
#include <string>

namespace elk::hw {

/// Inter-chip topology kinds the cluster layer can model.
enum class InterconnectKind {
    kRing,      ///< bidirectional ring; hops = min cyclic distance.
    kFullMesh,  ///< every chip reaches every chip in one hop.
};

/// Human-readable name of an interconnect kind.
std::string interconnect_name(InterconnectKind kind);

/// Knobs of the chip-to-chip fabric. Validated by the Interconnect
/// constructor: a negative bandwidth or latency is a worded fatal.
struct InterconnectConfig {
    /// Wiring between the chips (`elkc serve --interconnect`).
    InterconnectKind kind = InterconnectKind::kRing;
    /// Per-link bandwidth in bytes/s. 0 (default) resolves to the
    /// chip's ChipConfig::inter_chip_bw (IPU-POD4 §5: 640 GB/s).
    double link_bw = 0.0;
    /// One-way latency a transfer pays per hop (serdes + switch).
    double hop_latency_s = 1.0e-6;
};

/**
 * The resolved interconnect of an @p nodes-chip cluster. Immutable;
 * link_bw must be resolved (> 0) by the time this is constructed —
 * runtime::Cluster substitutes the machine's inter_chip_bw for the
 * 0 default before building it.
 */
class Interconnect {
  public:
    /// Validates @p cfg and builds the fabric; user error is fatal.
    Interconnect(const InterconnectConfig& cfg, int nodes);

    /// Chip count.
    int nodes() const { return nodes_; }

    /// The validated configuration.
    const InterconnectConfig& config() const { return cfg_; }

    /**
     * Hop count of the route from chip @p src to chip @p dst: 0 for
     * src == dst (a local "transfer" is free), 1 on a full mesh, the
     * minimum cyclic distance on a ring.
     */
    int hops(int src, int dst) const;

    /**
     * Seconds a @p bytes transfer from @p src to @p dst occupies the
     * wire: hops * hop_latency_s + bytes / link_bw. 0 when src == dst.
     */
    double transfer_seconds(int src, int dst, uint64_t bytes) const;

    /**
     * Link-level traffic the transfer induces: @p bytes crosses every
     * hop of the route, so hops * bytes bytes of aggregate link
     * occupancy (the cluster report's interconnect-pressure view).
     */
    uint64_t link_bytes(int src, int dst, uint64_t bytes) const;

  private:
    InterconnectConfig cfg_;
    int nodes_;
};

}  // namespace elk::hw

#endif  // ELK_HW_INTERCONNECT_H
