/**
 * @file
 * ServingCompiler: the compile side of the serving stack.
 *
 * The Server asks for "the program for bucket (batch, prompt_len)"
 * once per iteration; this facade runs the whole chain behind that
 * call once per bucket — graph construction, Compiler analysis, the
 * compile, and lowering to the simulator program — and memoizes only
 * the lowered program. An attached PlanCache is consulted once per
 * bucket, after graph construction: a hit returns the very program
 * another instance compiled, and no Compiler is built. The bucket's
 * graph and Compiler (with its worker threads) are gone once it is
 * lowered, so a long serve holds no idle compile threads; with glibc
 * malloc each such thread can pin its own arena. Returning the same
 * SimProgram object for a repeated bucket is what lets the engine
 * keep weights resident across iterations. The chip is analyzed
 * once, at construction: every bucket's Compiler shares that one
 * immutable sim::Machine, which is also the machine serving runs on
 * (except in Ideal mode, which serves on its own split-fabric
 * machine).
 *
 * A serving compiler builds one graph family: decode steps
 * (GraphKind::kDecode, one token per request against a KV cache of
 * the model sequence length) or prefill (GraphKind::kPrefill, the
 * forward shape that ingests a prompt). Prefill is two-dimensional:
 * each (batch, prompt_len) bucket compiles build_forward_graph at its
 * *bucketed length*, so a short prompt stops paying for a
 * full-sequence forward pass. Disaggregated serving runs one compiler
 * per family over a shared PlanCache, with disjoint op-id namespaces
 * (derived from the family — see kPrefillIdOffset) so every family
 * and every prefill length bucket can share one EngineState residency
 * pool without op-id aliasing.
 *
 * Thread-safe: replica sweeps share one instance across worker
 * threads. The per-iteration lookup of an
 * already-compiled bucket — the overwhelmingly common case once the
 * grid is warm — takes a shared (reader) lock only; a miss upgrades
 * to the exclusive lock and double-checks before compiling, so each
 * bucket is still compiled exactly once. The PlanCache is only
 * consulted under that exclusive lock; it is reached from several
 * threads only when several serving compilers share one cache.
 */
#ifndef ELK_ELK_SERVING_COMPILER_H
#define ELK_ELK_SERVING_COMPILER_H

#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>

#include "elk/compiler.h"
#include "elk/plan_cache.h"
#include "graph/model_config.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace elk::compiler {

/// Which graph family a ServingCompiler builds per bucket.
enum class GraphKind {
    kDecode,   ///< one-token decode step with a KV cache of seq.
    kPrefill,  ///< forward pass over the (bucketed) prompt length.
};

/// ServingCompiler::Options (declared at namespace scope so the
/// constructor can default it with `= {}`).
struct ServingCompilerOptions {
    /// Graph family every bucket of the compiler builds; it also picks
    /// the op-id namespace (see ServingCompiler::kPrefillIdOffset).
    GraphKind kind = GraphKind::kDecode;

    /// The prefill family.
    static ServingCompilerOptions prefill()
    {
        return {GraphKind::kPrefill};
    }
};

class ServingCompiler {
  public:
    /// Op-id offset of the prefill family (decode programs keep their
    /// ids): far above any real graph's operator count, so prefill
    /// and decode programs never alias in a shared residency pool.
    /// Prefill length buckets are further sub-namespaced per
    /// power-of-two band: a program at prompt length L is offset by
    ///   (1 + ceil(log2(L))) * kPrefillIdOffset,
    /// so every bucket of the default power-of-two ladder owns a
    /// disjoint id range and stays resident independently. (Two
    /// non-power-of-two bucket lengths in one band would share a
    /// namespace; the engine's footprint-verified residency keeps that
    /// correct, merely evicting on a mismatch.)
    static constexpr int kPrefillIdOffset = 1 << 20;

    /// Serving-specific knobs (the CompileOptions cover the search).
    using Options = ServingCompilerOptions;

    /**
     * @p cache may be nullptr (no cross-instance amortization) and
     * must outlive the serving compiler otherwise. @p seq is the
     * model sequence length: the KV depth of every decode program and
     * the longest prompt a prefill bucket can ingest. @p jobs is the
     * compiler worker-thread knob; plans are bit-identical at any
     * setting. @p serving_opts picks the graph family (decode by
     * default; Options::prefill() for prefill).
     */
    ServingCompiler(graph::ModelConfig model, int seq,
                    const hw::ChipConfig& cfg, CompileOptions opts,
                    PlanCache* cache, int jobs = 1,
                    Options serving_opts = {});

    /// Compiled program for the (batch, prompt_len) bucket
    /// (memoized). For the prefill family @p batch prompts, each of
    /// @p prompt_len tokens, are ingested together by a forward graph
    /// built at that length; the decode family is one-dimensional and
    /// requires prompt_len == seq (its KV depth).
    std::shared_ptr<const sim::SimProgram> program(int batch,
                                                   int prompt_len);

    /// Compiled program for @p batch at the model sequence length —
    /// the full-length bucket (and the only one decode has).
    std::shared_ptr<const sim::SimProgram> program(int batch);

    /// The machine serving runs on (split fabric for Ideal mode).
    const sim::Machine& machine() const { return *machine_; }

    /// Accumulated wall-clock seconds of every bucket's whole compile
    /// chain in program(): graph build, then either a plan-cache hit
    /// or the Compiler's analysis and plan library, the compile, and
    /// lowering.
    double compile_seconds() const;

    /// Design-mode name of the compiled plans.
    std::string mode() const { return mode_name(opts_.mode); }

    /// The graph family this compiler builds.
    GraphKind kind() const { return serving_opts_.kind; }

    /// The model sequence length buckets are bounded by.
    int seq() const { return seq_; }

  private:
    graph::ModelConfig model_;
    int seq_;
    hw::ChipConfig cfg_;
    CompileOptions opts_;
    PlanCache* cache_;
    int jobs_;
    Options serving_opts_;
    /// The chip analysis every bucket's Compiler shares.
    std::shared_ptr<const sim::Machine> compile_machine_;
    /// The serving machine: compile_machine_ itself, or a split-fabric
    /// machine in Ideal mode.
    std::shared_ptr<const sim::Machine> machine_;
    mutable std::shared_mutex mu_;
    /// (batch, prompt_len) -> lowered program.
    std::map<std::pair<int, int>, std::shared_ptr<const sim::SimProgram>>
        entries_;
    double compile_seconds_ = 0.0;
};

}  // namespace elk::compiler

#endif  // ELK_ELK_SERVING_COMPILER_H
