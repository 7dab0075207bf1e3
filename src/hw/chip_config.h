/**
 * @file
 * Hardware description of an inter-core connected AI (ICCA) chip system:
 * cores with local scratchpad SRAM, an inter-core interconnect
 * (all-to-all or 2D mesh) that also carries HBM-controller-to-core
 * traffic, and off-chip HBM channels (paper Fig. 1).
 */
#ifndef ELK_HW_CHIP_CONFIG_H
#define ELK_HW_CHIP_CONFIG_H

#include <cstdint>
#include <string>

namespace elk::hw {

/// Inter-core interconnect topology kinds supported by Elk (paper §5).
enum class TopologyKind {
    kAllToAll,  ///< IPU-style: every core reaches every core directly.
    kMesh2D,    ///< Tenstorrent/SambaNova-style 2D mesh with DOR routing.
};

/// Human-readable name of a topology kind.
std::string topology_name(TopologyKind kind);

/**
 * Configuration of one ICCA chip plus its off-chip memory system.
 *
 * Defaults follow the Graphcore IPU MK2 / IPU-POD4 numbers the paper
 * uses for both its emulator and its simulator (§2.1, §6.1): 1472 cores
 * per chip, 624 KB SRAM per core, 5.5 GB/s per-core inter-core
 * bandwidth, 4 chips, 16 TB/s aggregate HBM bandwidth (4 HBM3E-class
 * channels per chip).
 */
struct ChipConfig {
    // --- compute ---
    int cores_per_chip = 1472;
    int num_chips = 4;
    /// Peak MatMul FLOP/s per core (AMP pipeline). The paper's 4-chip
    /// emulator offers 1000 TFLOPS for MatMul (§6.3).
    double core_matmul_flops = 1000e12 / (4.0 * 1472.0);
    /// Peak FLOP/s per core for non-MatMul (vector) operations; the
    /// paper's emulator offers 31.2 TFLOPS across 4 chips.
    double core_vector_flops = 31.2e12 / (4.0 * 1472.0);
    /// Fixed per-tile launch overhead (instruction fetch, loop setup).
    double tile_launch_overhead_s = 1.0e-6;

    // --- on-chip memory ---
    uint64_t sram_per_core = 624ull * 1024;
    /// Reserved per-core buffer for inter-core transfer staging (§5).
    uint64_t transfer_buffer_per_core = 8ull * 1024;
    /// Local SRAM read bandwidth feeding the compute pipeline
    /// (128 bit/cycle at 1.33 GHz on IPU, §2.3).
    double sram_read_bw = 16.0 * 1.33e9;

    // --- interconnect ---
    TopologyKind topology = TopologyKind::kAllToAll;
    /// Per-core injection/ejection bandwidth (5.5 GB/s on IPU MK2).
    double inter_core_link_bw = 5.5e9;
    /// One-way link latency.
    double link_latency_s = 150e-9;
    /// Mesh grid dimensions (used when topology == kMesh2D). The
    /// product must be >= cores_per_chip; extra nodes stay idle.
    int mesh_width = 46;
    int mesh_height = 32;
    /// Per-direction mesh link bandwidth. Sized so the edge links can
    /// carry the per-chip HBM bandwidth into the grid (real mesh ICCA
    /// chips use few wide links instead of many narrow ones).
    double mesh_link_bw = 48e9;

    // --- off-chip memory ---
    /// Total HBM bandwidth across all chips (16 TB/s default, §6.1).
    double hbm_total_bw = 16e12;
    int hbm_channels_per_chip = 4;
    /// First-access latency of an HBM read burst.
    double hbm_access_latency_s = 350e-9;

    // --- multi-chip ---
    /// Aggregate inter-chip bandwidth (640 GB/s on IPU-POD4, §5).
    double inter_chip_bw = 640e9;

    /// Returns the canonical IPU-POD4-with-HBM configuration (§6.1).
    static ChipConfig ipu_pod4();

    /// Returns a small configuration convenient for unit tests.
    static ChipConfig tiny(int cores = 16);

    /// Total cores across all chips.
    int total_cores() const { return cores_per_chip * num_chips; }

    /// SRAM usable by the compiler per core (total minus staging buffer).
    uint64_t
    usable_sram_per_core() const
    {
        return sram_per_core - transfer_buffer_per_core;
    }

    /// Usable SRAM summed over all cores of all chips.
    uint64_t
    total_usable_sram() const
    {
        return usable_sram_per_core() *
               static_cast<uint64_t>(total_cores());
    }

    /// Aggregate inter-core bandwidth per chip (all cores injecting).
    double
    noc_aggregate_bw() const
    {
        return inter_core_link_bw * cores_per_chip;
    }

    /// HBM bandwidth available to a single chip.
    double hbm_bw_per_chip() const { return hbm_total_bw / num_chips; }

    /// Validates internal consistency; calls util::fatal on user error.
    void validate() const;
};

}  // namespace elk::hw

#endif  // ELK_HW_CHIP_CONFIG_H
