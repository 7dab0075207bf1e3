/**
 * @file
 * Tests for the pass-pipeline compiler core: pass ordering and
 * mode-gating, the work-stealing thread pool, and the bit-identity of
 * parallel and serial compilation (the determinism contract of
 * pass.h) on both the tiny fixture and the quickstart model.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "elk/compiler.h"
#include "elk/pass.h"
#include "graph/model_builder.h"
#include "sim/machine.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace elk::compiler {
namespace {

std::vector<std::string>
enabled_for(Mode mode)
{
    CompilerPipeline pipeline = CompilerPipeline::standard();
    CompileState probe;
    probe.opts.mode = mode;
    return pipeline.enabled_passes(probe);
}

TEST(PipelineTest, StandardPassOrder)
{
    auto names = CompilerPipeline::standard().pass_names();
    std::vector<std::string> expected = {
        "hardware-analysis", "plan-library",         "schedule-basic",
        "schedule-static",   "schedule-elk",         "preload-order-search",
        "schedule-ideal",    "finalize",
    };
    EXPECT_EQ(names, expected);
}

TEST(PipelineTest, ModeGatingSelectsOneSchedulingPass)
{
    EXPECT_EQ(enabled_for(Mode::kBasic),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-basic", "finalize"}));
    EXPECT_EQ(enabled_for(Mode::kStatic),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-static", "finalize"}));
    EXPECT_EQ(enabled_for(Mode::kElkDyn),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-elk", "finalize"}));
    EXPECT_EQ(enabled_for(Mode::kElkFull),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-elk",
                                        "preload-order-search", "finalize"}));
    EXPECT_EQ(enabled_for(Mode::kIdeal),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-ideal", "finalize"}));
}

TEST(PipelineTest, PassFilterNarrowsSelection)
{
    CompilerPipeline pipeline = CompilerPipeline::standard();
    CompileState probe;
    probe.opts.mode = Mode::kElkFull;
    probe.opts.pass_filter = {"hardware-analysis", "plan-library",
                              "schedule-elk", "finalize"};
    EXPECT_EQ(pipeline.enabled_passes(probe),
              (std::vector<std::string>{"hardware-analysis", "plan-library",
                                        "schedule-elk", "finalize"}));
    // The filter cannot enable a pass the mode gates out.
    probe.opts.mode = Mode::kBasic;
    probe.opts.pass_filter = {"schedule-ideal", "finalize"};
    EXPECT_EQ(pipeline.enabled_passes(probe),
              (std::vector<std::string>{"finalize"}));
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    const int n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, InlineWhenSingleThreaded)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0);  // no workers: parallel_for runs inline
    int sum = 0;
    pool.parallel_for(100, [&](int i) { sum += i; });  // safe: inline
    EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, PropagatesExceptions)
{
    util::ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](int i) {
                                       if (i == 17) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ResolveJobs)
{
    EXPECT_GE(util::ThreadPool::hardware_jobs(), 1);
    EXPECT_EQ(util::ThreadPool::resolve_jobs(0),
              util::ThreadPool::hardware_jobs());
    EXPECT_EQ(util::ThreadPool::resolve_jobs(1), 1);
    EXPECT_EQ(util::ThreadPool::resolve_jobs(6), 6);
}

TEST(ScheduleIrTest, ReorderEditDistanceEmptyPlanIsZero)
{
    ExecutionPlan empty;
    EXPECT_EQ(empty.reorder_edit_distance(), 0.0);
    // Identity order: nothing moved.
    ExecutionPlan identity;
    identity.ops.resize(3);
    identity.preload_order = {0, 1, 2};
    EXPECT_EQ(identity.reorder_edit_distance(), 0.0);
}

class PipelineCompileTest : public ::testing::Test {
  protected:
    PipelineCompileTest()
        : graph_(graph::build_decode_graph(testing::tiny_llm(), 8, 512)),
          cfg_(testing::CompilerHarness::tiny().cfg)
    {
    }

    std::string
    compile_bits(Mode mode, int jobs)
    {
        Compiler comp(graph_, cfg_, nullptr, jobs);
        CompileOptions opts;
        opts.mode = mode;
        opts.max_orders = 8;
        return comp.compile(opts).plan.serialize_bits();
    }

    graph::Graph graph_;
    hw::ChipConfig cfg_;
};

TEST_F(PipelineCompileTest, ParallelMatchesSerialAllModes)
{
    for (Mode mode : {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                      Mode::kElkFull, Mode::kIdeal}) {
        std::string serial = compile_bits(mode, 1);
        std::string parallel = compile_bits(mode, 4);
        EXPECT_EQ(serial, parallel) << mode_name(mode);
        EXPECT_FALSE(serial.empty());
    }
}

TEST_F(PipelineCompileTest, SchedulerWorkCountersIgnoreJobs)
{
    // Every schedule() counts into its own candidate's slot and the
    // slots merge serially, so the totals match at any job count.
    SearchStats stats[2];
    const int jobs[] = {1, 4};
    for (int k = 0; k < 2; ++k) {
        Compiler comp(graph_, cfg_, nullptr, jobs[k]);
        CompileOptions opts;
        opts.mode = Mode::kElkFull;
        opts.max_orders = 8;
        stats[k] = comp.compile(opts).stats;
    }
    EXPECT_GT(stats[0].frontiers_tested, 0u);
    EXPECT_LE(stats[0].allocator_calls, stats[0].frontiers_tested);
    EXPECT_EQ(stats[0].frontiers_tested, stats[1].frontiers_tested);
    EXPECT_EQ(stats[0].allocator_calls, stats[1].allocator_calls);
}

TEST_F(PipelineCompileTest, RepeatedCompilesAreIdentical)
{
    Compiler comp(graph_, cfg_);
    CompileOptions opts;
    opts.mode = Mode::kElkFull;
    opts.max_orders = 8;
    // The second compile reuses the analysis products; the plan must
    // not drift.
    EXPECT_EQ(comp.compile(opts).plan.serialize_bits(),
              comp.compile(opts).plan.serialize_bits());
}

TEST_F(PipelineCompileTest, SerializeBitsDistinguishesPlans)
{
    std::string basic = compile_bits(Mode::kBasic, 1);
    std::string dyn = compile_bits(Mode::kElkDyn, 1);
    EXPECT_NE(basic, dyn);
}

TEST_F(PipelineCompileTest, StatsSurviveThePipelineSplit)
{
    Compiler comp(graph_, cfg_);
    CompileOptions opts;
    opts.mode = Mode::kElkFull;
    opts.max_orders = 8;
    auto result = comp.compile(opts);
    EXPECT_EQ(result.stats.n_ops, graph_.size());
    EXPECT_GT(result.stats.max_plans, 0);
    EXPECT_GT(result.stats.max_fit_window, 0);
    EXPECT_GE(result.stats.orders_tested, 1);
}

// One chip analysis shared across compilers (the serving bucket
// ladder's setup): handing a Compiler the machine must not change a
// single plan bit, and the plan context must read the shared traffic
// model rather than a private copy.
TEST_F(PipelineCompileTest, SharedMachineMatchesOwnAllModes)
{
    auto machine = std::make_shared<const sim::Machine>(cfg_);
    for (Mode mode : {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                      Mode::kElkFull, Mode::kIdeal}) {
        CompileOptions opts;
        opts.mode = mode;
        opts.max_orders = 8;
        Compiler shared(graph_, cfg_, nullptr, 1, machine);
        EXPECT_EQ(shared.context().traffic, &machine->traffic());
        EXPECT_EQ(shared.compile(opts).plan.serialize_bits(),
                  compile_bits(mode, 1))
            << mode_name(mode);
    }
}

TEST_F(PipelineCompileTest, CompilersSharingAMachineCompileConcurrently)
{
    const graph::Graph other =
        graph::build_decode_graph(testing::tiny_llm(), 4, 512);
    CompileOptions opts;
    opts.mode = Mode::kElkFull;
    opts.max_orders = 8;
    const std::string want_a = Compiler(graph_, cfg_).compile(opts)
                                   .plan.serialize_bits();
    const std::string want_b = Compiler(other, cfg_).compile(opts)
                                   .plan.serialize_bits();

    auto machine = std::make_shared<const sim::Machine>(cfg_);
    Compiler a(graph_, cfg_, nullptr, 1, machine);
    Compiler b(other, cfg_, nullptr, 1, machine);
    std::string got_a;
    std::string got_b;
    std::thread ta([&] { got_a = a.compile(opts).plan.serialize_bits(); });
    std::thread tb([&] { got_b = b.compile(opts).plan.serialize_bits(); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, want_a);
    EXPECT_EQ(got_b, want_b);
    EXPECT_NE(got_a, got_b);
}

TEST_F(PipelineCompileTest, ConcurrentCompilesOnOneCompiler)
{
    // Two threads, one Compiler, one construction pool: each compile()
    // works on a private state copy over the immutable analysis.
    Compiler comp(graph_, cfg_, nullptr, 2);
    const Mode modes[] = {Mode::kElkFull, Mode::kStatic};
    std::string got[2];
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            CompileOptions opts;
            opts.mode = modes[t];
            opts.max_orders = 8;
            got[t] = comp.compile(opts).plan.serialize_bits();
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (int t = 0; t < 2; ++t) {
        EXPECT_EQ(got[t], compile_bits(modes[t], 1))
            << mode_name(modes[t]);
    }
}

// The acceptance check of the parallel pipeline: the quickstart model
// (Llama2-13B decode, batch 32, seq 2048, IPU-POD4) compiled with
// --jobs 8 and --jobs 1 must emit byte-identical ExecutionPlans.
TEST(PipelineQuickstartTest, ParallelAndSerialPlansAreByteIdentical)
{
    auto graph = graph::build_decode_graph(graph::llama2_13b(), 32, 2048);
    auto cfg = hw::ChipConfig::ipu_pod4();
    CompileOptions opts;
    opts.mode = Mode::kElkFull;

    Compiler serial(graph, cfg, nullptr, 1);
    auto serial_plan = serial.compile(opts).plan;

    Compiler parallel(graph, cfg, nullptr, 8);
    auto parallel_plan = parallel.compile(opts).plan;

    EXPECT_EQ(serial_plan.serialize_bits(),
              parallel_plan.serialize_bits());
    EXPECT_EQ(serial_plan.mode, "Elk-Full");
}

}  // namespace
}  // namespace elk::compiler
