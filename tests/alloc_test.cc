/**
 * @file
 * Heap allocations on the hot paths, counted by this binary's own
 * replacement of the global operator new: a passing check()/require()
 * with a literal message allocates nothing, a warmed EngineState runs
 * a program's step() loop allocation-free and replays a recorded run
 * through begin_memo() → finish() allocation-free, and building a sim::Machine
 * (topology plus the sampled traffic analysis) costs a fixed handful
 * of allocations rather than one per sampled route. A failing literal
 * check still dies with its text.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "elk/inductive_scheduler.h"
#include "hw/chip_config.h"
#include "runtime/executor.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "test_helpers.h"
#include "util/logging.h"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace elk {
namespace {

long
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocTest, PassingLiteralChecksAllocateNothing)
{
    // Both messages are far past any small-string buffer; volatile
    // keeps the conditions from folding away.
    volatile bool ok = true;
    const long before = allocations();
    for (int i = 0; i < 1000; ++i) {
        util::check(ok, "alloc_test: an invariant message well past SSO");
        util::require(ok, "alloc_test: a user-error message well past SSO");
    }
    EXPECT_EQ(allocations() - before, 0);
}

TEST(AllocTest, WarmedEngineStepLoopAllocatesNothing)
{
    auto h = testing::CompilerHarness::tiny();
    const compiler::InductiveScheduler sched(*h.library);
    auto plan = sched.schedule_in_order(compiler::ScheduleOptions{});
    ASSERT_TRUE(plan.has_value());
    const sim::SimProgram program =
        runtime::lower_to_sim(h.graph, *plan, h.ctx);
    const sim::Machine machine(h.cfg);

    // Without residency every op preloads over HBM; with it the
    // second run hits every weight the first run left resident.
    sim::EngineState::Options retain;
    retain.residency_budget = h.cfg.usable_sram_per_core();
    for (const auto& opts : {sim::EngineState::Options{}, retain}) {
        sim::EngineState state(machine, opts);
        state.begin(program);
        while (state.step()) {
        }
        const sim::SimResult first = state.finish();
        EXPECT_GT(first.hbm_util, 0.0);
        EXPECT_GT(first.noc_util, 0.0);

        state.begin(program);
        const long before = allocations();
        int steps = 0;
        while (state.step()) {
            ++steps;
        }
        const long during = allocations() - before;
        state.finish();
        EXPECT_GT(steps, 0);
        EXPECT_EQ(during, 0) << "residency budget " << opts.residency_budget;
    }
}

TEST(AllocTest, WarmedMemoReplayAllocatesNothing)
{
    auto h = testing::CompilerHarness::tiny();
    const compiler::InductiveScheduler sched(*h.library);
    auto plan = sched.schedule_in_order(compiler::ScheduleOptions{});
    ASSERT_TRUE(plan.has_value());
    const auto program = std::make_shared<const sim::SimProgram>(
        runtime::lower_to_sim(h.graph, *plan, h.ctx));
    const sim::Machine machine(h.cfg);

    sim::EngineState::Options retain;
    retain.residency_budget = h.cfg.usable_sram_per_core();
    sim::EngineState state(machine, retain);
    auto run = [&] {
        const bool replayed = state.begin_memo(program, 1e300);
        while (state.step()) {
        }
        state.finish();
        return replayed;
    };
    // The cold run and the first warm one record; later ones replay
    // and size the replay's scratch.
    for (int i = 0; i < 4; ++i) {
        run();
    }
    ASSERT_GE(state.replays(), 2);

    const long before = allocations();
    const bool replayed = run();
    const long during = allocations() - before;
    EXPECT_TRUE(replayed);
    EXPECT_EQ(during, 0);
}

/// Allocations made by constructing a sim::Machine for @p cfg.
long
machine_allocations(const hw::ChipConfig& cfg)
{
    const long before = allocations();
    const sim::Machine machine(cfg);
    return allocations() - before;
}

TEST(AllocTest, MachineConstructionDoesNotAllocatePerRoute)
{
    // The peer-exchange analysis samples cores x strides routes: 4,032
    // of up to 16 links on the 8x8 mesh, 198,720 on the all-to-all
    // IPU-POD4 chip. Measured: 6 allocations on the mesh and 5 on the
    // all-to-all chip, whatever the route count — the topology, its
    // link table and the mesh's HBM attach table, the traffic model,
    // and one load table per sampled pattern. A vector per route
    // would take thousands.
    constexpr long kBound = 16;
    hw::ChipConfig mesh = testing::tiny_chip();
    mesh.topology = hw::TopologyKind::kMesh2D;
    EXPECT_LE(machine_allocations(mesh), kBound);
    EXPECT_LE(machine_allocations(hw::ChipConfig::ipu_pod4()), kBound);
}

TEST(AllocTestDeathTest, FailingLiteralCheckStillPanicsWithItsText)
{
    volatile bool ok = false;
    EXPECT_DEATH(util::check(ok, "alloc_test: literal invariant failed"),
                 "\\[elk PANIC\\] alloc_test: literal invariant failed");
    EXPECT_EXIT(util::require(ok, "alloc_test: literal user error"),
                ::testing::ExitedWithCode(1),
                "\\[elk FATAL\\] alloc_test: literal user error");
}

}  // namespace
}  // namespace elk
