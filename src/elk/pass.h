/**
 * @file
 * The compiler's pass pipeline (paper Fig. 9, staged).
 *
 * Compilation is a sequence of passes over one shared CompileState:
 *
 *   hardware-analysis  -> the chip's sim::Machine + plan context
 *   plan-library       -> per-signature Pareto fronts (parallel)
 *   schedule-basic     |  mode-gated scheduling: exactly one of these
 *   schedule-static    |  produces state.plan for the requested design
 *   schedule-elk       |  (Elk-Dyn; Elk-Full refines it below)
 *   schedule-ideal     |
 *   preload-order-search -> §4.4 candidate scoring (parallel), Elk-Full
 *   finalize           -> Table 2 search statistics
 *
 * Contract: a pass reads only CompileState fields produced by earlier
 * passes and fills its own products; environment products (machine,
 * plan library) are shared_ptrs so states can be copied per compile()
 * call, and passes skip work that is already present. Parallel passes
 * fan out over state.pool and must merge deterministically — the
 * compiled plan is bit-identical at any job count (enforced by
 * pipeline_test).
 */
#ifndef ELK_ELK_PASS_H
#define ELK_ELK_PASS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/exec_cost.h"
#include "elk/inductive_scheduler.h"
#include "elk/schedule_ir.h"
#include "hw/chip_config.h"
#include "sim/machine.h"
#include "util/thread_pool.h"

namespace elk::compiler {

/// Compilation designs (paper §6.1).
enum class Mode { kBasic, kStatic, kElkDyn, kElkFull, kIdeal };

/// Human-readable mode name as used in the paper's figures.
std::string mode_name(Mode mode);

/// Compiler knobs.
struct CompileOptions {
    Mode mode = Mode::kElkFull;
    /// Cap on simultaneously live preloads the scheduler explores.
    int max_window = 28;
    /// Maximum candidate preload orders evaluated (Elk-Full).
    int max_orders = 96;
    /// Static mode only: fixed per-core preload-region size in bytes;
    /// 0 searches the best static size offline (§6.1).
    uint64_t static_region = 0;
    /// When non-empty, only the named passes run (--passes); unknown
    /// names are a fatal error. Mode gating still applies.
    std::vector<std::string> pass_filter;
};

/// Search-space statistics (paper Table 2) gathered during compile.
struct SearchStats {
    int n_ops = 0;          ///< N.
    int max_plans = 0;      ///< P.
    int max_fit_window = 0; ///< K.
    int heavy_per_layer = 0;///< H.
    int heavy_fit = 0;      ///< C.
    int orders_tested = 0;  ///< candidate preload orders evaluated.
    /// schedule-elk (window, weight) tuning candidates actually
    /// scheduled and simulated, out of windows x kOverheadWeights;
    /// weights that share an anchor table reuse the first one's run.
    int candidates_scheduled = 0;
    /// Feasible execute plans the plan library enumerated.
    uint64_t exec_points = 0;
    /// Execute fronts whose exact (space, time) tie needed the sort.
    int tied_fronts = 0;
    /// Summed over every InductiveScheduler::schedule call the compile
    /// ran (ScheduleWork): candidate frontiers priced, and those that
    /// needed the allocator because the floors overflowed SRAM.
    uint64_t frontiers_tested = 0;
    uint64_t allocator_calls = 0;

    void
    add(const ScheduleWork& work)
    {
        frontiers_tested += work.frontiers_tested;
        allocator_calls += work.allocator_calls;
    }
};

/**
 * Everything the passes consume and produce. Environment products are
 * shared so per-compile copies are cheap; per-compile products (plan,
 * stats) are value members of each copy.
 */
struct CompileState {
    // --- inputs ---
    const graph::Graph* graph = nullptr;
    CompileOptions opts;
    /// Worker pool for the parallel passes; nullptr = serial.
    util::ThreadPool* pool = nullptr;

    // --- hardware-analysis products ---
    std::shared_ptr<const hw::ChipConfig> cfg;  ///< validated copy.
    /// The chip's topology + traffic analysis, which the offline
    /// tuning sweeps also simulate on. Immutable and never split
    /// fabric; a driver may preset it to share one chip analysis
    /// across compiles (it must match `cfg`).
    std::shared_ptr<const sim::Machine> machine;
    plan::PlanContext ctx;  ///< points into cfg/machine/cost handle.

    // --- plan-library products ---
    std::shared_ptr<const PlanLibrary> library;

    // --- per-compile products ---
    /// Scheduler knobs tuned by schedule-elk's offline sweep; the
    /// preload-order-search pass schedules candidates with them.
    std::optional<ScheduleOptions> tuned_schedule;
    /// Simulated total time of the plan schedule-elk left in `plan`,
    /// so preload-order-search compares against it without simulating
    /// that plan again. It lives here, not in the plan's
    /// est_total_time, which is serialized and keeps its own meaning.
    std::optional<double> tuned_sim_time;
    std::optional<ExecutionPlan> plan;
    SearchStats stats;
};

/// One pipeline stage.
class Pass {
  public:
    virtual ~Pass() = default;

    /// Stable pass name (used by --passes and the pipeline tests).
    virtual std::string name() const = 0;

    /// Whether the pass participates for @p state's mode/options
    /// (before the pass_filter is applied).
    virtual bool enabled(const CompileState& state) const
    {
        (void)state;
        return true;
    }

    /// Runs the pass; must only read products of earlier passes.
    virtual void run(CompileState& state) const = 0;
};

/// An ordered list of passes plus gating/filter logic.
class CompilerPipeline {
  public:
    CompilerPipeline() = default;
    CompilerPipeline(CompilerPipeline&&) = default;
    CompilerPipeline& operator=(CompilerPipeline&&) = default;

    /// Appends a pass; returns *this for chaining.
    CompilerPipeline& add(std::unique_ptr<Pass> pass);

    /// All registered pass names, in pipeline order.
    std::vector<std::string> pass_names() const;

    /// Names of the passes that would actually run for @p state
    /// (mode gating plus the options' pass filter), in order.
    std::vector<std::string> enabled_passes(const CompileState& state) const;

    /// Runs every selected pass in order.
    void run(CompileState& state) const;

    /// Runs the selected passes up to and including @p last_pass
    /// (used to build the analysis products at Compiler construction).
    void run_prefix(CompileState& state, const std::string& last_pass) const;

    /// Panics when @p filter names a pass this pipeline doesn't have.
    void validate_filter(const std::vector<std::string>& filter) const;

    /// The standard Fig. 9 pipeline; passes self-gate by mode.
    static CompilerPipeline standard();

  private:
    bool selected(const Pass& pass, const CompileState& state) const;

    std::vector<std::unique_ptr<Pass>> passes_;
};

/// The overhead weights (ScheduleOptions::overhead_weight) that
/// schedule-elk's offline sweep tries at every window, in candidate
/// order.
inline constexpr double kOverheadWeights[] = {0.0, 0.25, 1.0, 4.0, 1e9};

/// The preload windows schedule-elk's sweep tries: @p max_window, then
/// repeatedly two thirds of the previous one, down to 1.
std::vector<int> sweep_windows(int max_window);

/**
 * For each weight of kOverheadWeights, the index of the first weight
 * whose InductiveScheduler::anchor_table over @p sched's library is
 * equal to its own (itself when none earlier is). Weights in one group
 * schedule identically, so schedule-elk runs only the first of each.
 */
std::vector<int> overhead_weight_groups(const InductiveScheduler& sched);

/// The paper's K for a plan library: the longest run of consecutive
/// operators whose minimum preload spaces fit on-chip together.
int max_fit_window(const PlanLibrary& library);

}  // namespace elk::compiler

#endif  // ELK_ELK_PASS_H
