/**
 * @file
 * google-benchmark microbenchmarks of the compiler and simulator
 * kernels themselves: plan enumeration, the §4.3 allocator, the §4.2
 * scheduler, program simulation, and topology traffic analysis. These
 * back the compile-time claims (Fig. 16) at the component level.
 */
#include <benchmark/benchmark.h>

#include "elk/compiler.h"
#include "elk/inductive_scheduler.h"
#include "elk/memory_allocator.h"
#include "graph/model_builder.h"
#include "runtime/executor.h"
#include "sim/engine.h"

namespace {

using namespace elk;

/// Shared state: Llama2-13B decode on the POD4 config.
struct Fixture {
    Fixture()
        : cfg(hw::ChipConfig::ipu_pod4()),
          graph(graph::build_decode_graph(graph::llama2_13b(), 32, 2048)),
          comp(graph, cfg)
    {
    }
    hw::ChipConfig cfg;
    graph::Graph graph;
    compiler::Compiler comp;
};

Fixture&
fixture()
{
    static Fixture f;
    return f;
}

void
BM_PlanEnumeration(benchmark::State& state)
{
    auto& f = fixture();
    graph::Operator op;
    op.kind = graph::OpKind::kMatMul;
    op.m = 32;
    op.k = 5120;
    op.n = static_cast<long>(state.range(0));
    op.param_bytes = static_cast<uint64_t>(op.k) * op.n * 2;
    op.act_in_bytes = static_cast<uint64_t>(op.m) * op.k * 2;
    graph::finalize_flops(op);
    for (auto _ : state) {
        auto front = plan::enumerate_exec_plans(op, f.comp.context());
        benchmark::DoNotOptimize(front);
    }
}
BENCHMARK(BM_PlanEnumeration)->Arg(4096)->Arg(13824)->Arg(32000);

void
BM_MemoryAllocator(benchmark::State& state)
{
    auto& f = fixture();
    compiler::MemoryAllocator alloc(f.comp.library());
    // Live window of the first `range` matmuls.
    std::vector<int> live;
    for (const auto& op : f.graph.ops()) {
        if (op.kind == graph::OpKind::kMatMul &&
            static_cast<int>(live.size()) < state.range(0)) {
            live.push_back(op.id);
        }
    }
    int current = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0), floor(live.size(), 0);
    uint64_t budget = f.comp.context().sram_budget();
    compiler::AllocatorScratch scratch;
    for (auto _ : state) {
        auto choice = alloc.allocate(current, live, exec_idx, floor,
                                     budget, scratch);
        benchmark::DoNotOptimize(choice);
    }
}
BENCHMARK(BM_MemoryAllocator)->Arg(4)->Arg(8)->Arg(16);

void
BM_InductiveScheduler(benchmark::State& state)
{
    auto& f = fixture();
    compiler::InductiveScheduler sched(f.comp.library());
    compiler::ScheduleOptions opts;
    opts.max_window = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto plan = sched.schedule_in_order(opts);
        benchmark::DoNotOptimize(plan);
    }
    state.SetItemsProcessed(state.iterations() * f.graph.size());
}
BENCHMARK(BM_InductiveScheduler)->Arg(8)->Arg(28);

void
BM_SimulateProgram(benchmark::State& state)
{
    auto& f = fixture();
    compiler::CompileOptions opts;
    opts.mode = compiler::Mode::kElkDyn;
    auto compiled = f.comp.compile(opts);
    sim::Machine machine(f.cfg);
    sim::Engine engine(machine);
    auto program =
        runtime::lower_to_sim(f.graph, compiled.plan, f.comp.context());
    for (auto _ : state) {
        auto result = engine.run(program);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * f.graph.size());
}
BENCHMARK(BM_SimulateProgram);

void
BM_TrafficModel(benchmark::State& state)
{
    auto cfg = hw::ChipConfig::ipu_pod4();
    if (state.range(0) == 1) {
        cfg.topology = hw::TopologyKind::kMesh2D;
    }
    for (auto _ : state) {
        hw::Topology topo(cfg);
        hw::TrafficModel tm(topo, cfg);
        benchmark::DoNotOptimize(tm);
    }
}
BENCHMARK(BM_TrafficModel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_FullCompile(benchmark::State& state)
{
    auto& f = fixture();
    compiler::CompileOptions opts;
    opts.mode = state.range(0) == 0 ? compiler::Mode::kElkDyn
                                    : compiler::Mode::kElkFull;
    opts.max_orders = 24;
    for (auto _ : state) {
        auto result = f.comp.compile(opts);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_FullCompile)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
