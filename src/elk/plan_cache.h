/**
 * @file
 * Compiled-program cache for the serving runtime.
 *
 * Compilation is per (model, mode, batch, chip) and deterministic, so
 * ServingCompiler::program() caches each bucket's finished simulator
 * program — compiled, lowered and op-id namespaced — under a
 * structural key, and a hit skips the whole compile chain: no
 * Compiler is built and the very object another instance compiled is
 * returned. The cache is thread-safe: several serving compilers may
 * share one across worker threads, and because programs are
 * bit-identical at any job count it never matters which worker filled
 * an entry first.
 */
#ifndef ELK_ELK_PLAN_CACHE_H
#define ELK_ELK_PLAN_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "elk/pass.h"
#include "graph/graph.h"
#include "hw/chip_config.h"
#include "sim/engine.h"

namespace elk::compiler {

/// Structural cache key: what the produced program depends on. It
/// holds no cost model: only ServingCompiler consults the cache, and
/// it always compiles with the analytic model, so a program compiled
/// under a fitted model can never be served for this key.
struct PlanKey {
    std::string model;    ///< graph name + operator-signature digest.
    std::string chip;     ///< chip configuration signature.
    std::string mode;     ///< design mode name.
    int batch = 0;        ///< max operator batch (diagnostics).
    /// Sequence length the graph was built at (Graph::seq; 0 when
    /// unknown). Decode programs and every (batch, prompt-length)
    /// prefill bucket partition cleanly on it — the operator digest
    /// already separates them, this keeps the partition visible in
    /// keys() and ordered by length.
    int seq = 0;
    std::string options;  ///< search-knob digest (windows, orders...).

    /// Lexicographic over every field, in declaration order — the
    /// map order keys() lists entries in.
    bool operator<(const PlanKey& o) const;

    /// Human-readable form ("model|chip|mode|batch|seq|opts").
    std::string to_string() const;
};

/// Digest of a graph's structure: name, size, and an FNV-1a hash over
/// every operator's plan-relevant fields. Two graphs with equal
/// signatures compile to bit-identical plans on equal chips/options.
std::string model_signature(const graph::Graph& graph);

/// Digest of every ChipConfig field the compiler reads.
std::string chip_signature(const hw::ChipConfig& cfg);

/// Cache key for compiling @p graph on @p cfg with @p opts.
PlanKey make_plan_key(const graph::Graph& graph,
                      const hw::ChipConfig& cfg,
                      const CompileOptions& opts);

/// Thread-safe (key -> lowered program) store with hit/miss counters.
class PlanCache {
  public:
    /// Lifetime counters, returned by stats().
    struct Stats {
        int64_t hits = 0;    ///< lookups that found an entry.
        int64_t misses = 0;  ///< lookups that compiled fresh.
        int entries = 0;     ///< distinct keys currently cached.
    };

    /// Cached program for @p key, or nullptr; counts a hit or miss.
    std::shared_ptr<const sim::SimProgram> lookup(const PlanKey& key);

    /// Stores @p program under @p key (first insert wins; programs
    /// are bit-identical by the determinism contract).
    void insert(const PlanKey& key,
                std::shared_ptr<const sim::SimProgram> program);

    /// Snapshot of the lifetime hit/miss/entry counters.
    Stats stats() const;

    /// Human-readable key of every cached entry, in key order — the
    /// diagnostic view drivers print to show what a serving run
    /// actually compiled (e.g. prefill vs decode plan partitions).
    std::vector<std::string> keys() const;

  private:
    mutable std::mutex mu_;
    std::map<PlanKey, std::shared_ptr<const sim::SimProgram>> entries_;
    Stats stats_;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_PLAN_CACHE_H
