/**
 * @file
 * Unit tests for the §4.3 cost-aware memory allocator.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "elk/memory_allocator.h"
#include "test_helpers.h"

namespace elk::compiler {
namespace {

class AllocatorTest : public ::testing::Test {
  protected:
    AllocatorTest() : h_(testing::CompilerHarness::tiny()) {}

    /// Finds a matmul op id (they have real plan fronts).
    int
    find_matmul() const
    {
        for (const auto& op : h_.graph.ops()) {
            if (op.kind == graph::OpKind::kMatMul) {
                return op.id;
            }
        }
        return 0;
    }

    /// A few matmul op ids for live sets.
    std::vector<int>
    find_matmuls(int count) const
    {
        std::vector<int> ids;
        for (const auto& op : h_.graph.ops()) {
            if (op.kind == graph::OpKind::kMatMul &&
                static_cast<int>(ids.size()) < count) {
                ids.push_back(op.id);
            }
        }
        return ids;
    }

    testing::CompilerHarness h_;
    /// Shared by every call of a test, as the scheduler shares one
    /// across a schedule() call.
    AllocatorScratch scratch_;
};

TEST_F(AllocatorTest, EmptyLiveSetPicksFastestPlan)
{
    MemoryAllocator alloc(*h_.library);
    int op = find_matmul();
    auto choice =
        alloc.allocate(op, {}, {}, {}, h_.ctx.sram_budget(), scratch_);
    ASSERT_TRUE(choice.feasible);
    EXPECT_EQ(choice.exec_idx, 0);
    EXPECT_DOUBLE_EQ(choice.exec_time,
                     h_.library->exec_plans(op)[0].exec_time);
}

TEST_F(AllocatorTest, ResultAlwaysFitsBudget)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(4);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    for (uint64_t budget :
         {h_.ctx.sram_budget(), h_.ctx.sram_budget() / 2,
          h_.ctx.sram_budget() / 4}) {
        auto choice =
            alloc.allocate(cur, live, exec_idx, floor, budget, scratch_);
        if (choice.feasible) {
            EXPECT_LE(choice.used_space, budget);
        }
    }
}

TEST_F(AllocatorTest, SmallerBudgetNeverFaster)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(3);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    auto big = alloc.allocate(cur, live, exec_idx, floor,
                              h_.ctx.sram_budget(), scratch_);
    auto small = alloc.allocate(cur, live, exec_idx, floor,
                                h_.ctx.sram_budget() / 3, scratch_);
    // Exec time plus every live op's chosen preload-plan time cost.
    auto total_time = [&](const AllocationChoice& choice) {
        double t = choice.exec_time;
        for (size_t j = 0; j < live.size(); ++j) {
            t += h_.library->preload_plans(live[j], exec_idx[j])
                     [choice.preload_idx[j]].time_cost();
        }
        return t;
    };
    if (big.feasible && small.feasible) {
        EXPECT_LE(total_time(big), total_time(small) + 1e-12);
    }
}

TEST_F(AllocatorTest, InfeasibleWhenBudgetTiny)
{
    MemoryAllocator alloc(*h_.library);
    int cur = find_matmul();
    auto choice = alloc.allocate(cur, {}, {}, {}, 16, scratch_);
    EXPECT_FALSE(choice.feasible);
}

TEST_F(AllocatorTest, FloorRespected)
{
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(2);
    int cur = live.back();
    live.pop_back();
    // Force the live op's preload to start at its smallest plan.
    int last = static_cast<int>(
                   h_.library->preload_plans(live[0], 0).size()) -
               1;
    auto choice = alloc.allocate(cur, live, {0}, {last},
                                 h_.ctx.sram_budget(), scratch_);
    ASSERT_TRUE(choice.feasible);
    EXPECT_GE(choice.preload_idx[0], last);
}

TEST_F(AllocatorTest, DowngradesPreloadBeforeCripplingExec)
{
    // With a moderately tight budget the allocator should trade the
    // cheap preload-space of live ops before taking a large execution
    // slowdown: verify the chosen exec plan is not the very slowest
    // when budget still allows better.
    MemoryAllocator alloc(*h_.library);
    auto live = find_matmuls(3);
    int cur = live.back();
    live.pop_back();
    std::vector<int> exec_idx(live.size(), 0);
    std::vector<int> floor(live.size(), 0);
    uint64_t budget = h_.ctx.sram_budget();
    auto choice =
        alloc.allocate(cur, live, exec_idx, floor, budget, scratch_);
    ASSERT_TRUE(choice.feasible);
    int slowest =
        static_cast<int>(h_.library->exec_plans(cur).size()) - 1;
    if (slowest > 0) {
        EXPECT_LT(choice.exec_idx, std::max(1, slowest));
    }
}

TEST_F(AllocatorTest, RandomRequestsKeepExactFootprint)
{
    // The footprint is tracked as a running total across downgrades:
    // over seeded random live sets, exec indices, floors and budgets it
    // must equal a full re-sum of the chosen plans' spaces, and every
    // feasible result must fit its budget.
    MemoryAllocator alloc(*h_.library);
    const PlanLibrary& lib = *h_.library;
    std::mt19937 rng(2026);
    std::vector<int> ids(h_.graph.size());
    for (int id = 0; id < h_.graph.size(); ++id) {
        ids[id] = id;
    }
    int feasible = 0;
    int infeasible = 0;
    for (int trial = 0; trial < 500; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::shuffle(ids.begin(), ids.end(), rng);
        const int cur = ids[0];
        const size_t k = rng() % 13;
        std::vector<int> live(ids.begin() + 1, ids.begin() + 1 + k);
        std::vector<int> exec_idx(k), floor(k);
        for (size_t j = 0; j < k; ++j) {
            exec_idx[j] = static_cast<int>(
                rng() % lib.exec_plans(live[j]).size());
            floor[j] = static_cast<int>(
                rng() % lib.preload_plans(live[j], exec_idx[j]).size());
        }
        const uint64_t budget =
            h_.ctx.sram_budget() / 8 +
            rng() % (h_.ctx.sram_budget() - h_.ctx.sram_budget() / 8);

        auto choice =
            alloc.allocate(cur, live, exec_idx, floor, budget, scratch_);

        ASSERT_EQ(choice.preload_idx.size(), k);
        ASSERT_LT(choice.exec_idx,
                  static_cast<int>(lib.exec_plans(cur).size()));
        uint64_t resum = lib.exec_plans(cur)[choice.exec_idx].exec_space;
        for (size_t j = 0; j < k; ++j) {
            const auto& front = lib.preload_plans(live[j], exec_idx[j]);
            ASSERT_GE(choice.preload_idx[j], floor[j]);
            ASSERT_LT(choice.preload_idx[j],
                      static_cast<int>(front.size()));
            resum += front[choice.preload_idx[j]].preload_space;
        }
        EXPECT_EQ(choice.used_space, resum);
        // The reused scratch carries nothing over: a fresh one agrees.
        AllocatorScratch fresh;
        auto again =
            alloc.allocate(cur, live, exec_idx, floor, budget, fresh);
        EXPECT_EQ(again.feasible, choice.feasible);
        EXPECT_EQ(again.exec_idx, choice.exec_idx);
        EXPECT_EQ(again.preload_idx, choice.preload_idx);
        EXPECT_EQ(again.used_space, choice.used_space);
        if (choice.feasible) {
            EXPECT_LE(choice.used_space, budget);
            ++feasible;
        } else {
            EXPECT_GT(choice.used_space, budget);
            ++infeasible;
        }
    }
    // The draws exercise both outcomes.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

TEST_F(AllocatorTest, FloorsThatFitComeBackUnchanged)
{
    // The scheduler's fast path skips allocate() when the starting
    // point (exec plan 0, every live op at its floor) fits the budget.
    // That is exact only if allocate() then returns the starting point
    // itself; one byte less budget must force a downgrade.
    MemoryAllocator alloc(*h_.library);
    const PlanLibrary& lib = *h_.library;
    std::mt19937 rng(25);
    std::vector<int> ids(h_.graph.size());
    for (int id = 0; id < h_.graph.size(); ++id) {
        ids[id] = id;
    }
    int downgraded = 0;
    for (int trial = 0; trial < 500; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::shuffle(ids.begin(), ids.end(), rng);
        const int cur = ids[0];
        const size_t k = rng() % 13;
        std::vector<int> live(ids.begin() + 1, ids.begin() + 1 + k);
        std::vector<int> exec_idx(k), floor(k);
        uint64_t floor_space = lib.exec_plans(cur)[0].exec_space;
        for (size_t j = 0; j < k; ++j) {
            exec_idx[j] = static_cast<int>(
                rng() % lib.exec_plans(live[j]).size());
            const auto& front = lib.preload_plans(live[j], exec_idx[j]);
            floor[j] = static_cast<int>(rng() % front.size());
            floor_space += front[floor[j]].preload_space;
        }
        // Any budget from the floor footprint up fits it, the exact
        // fit included.
        const uint64_t roomy = floor_space + 1 + rng() % 4096;
        for (uint64_t budget : {floor_space, roomy}) {
            auto choice = alloc.allocate(cur, live, exec_idx, floor,
                                         budget, scratch_);
            ASSERT_TRUE(choice.feasible);
            EXPECT_EQ(choice.exec_idx, 0);
            EXPECT_EQ(choice.preload_idx, floor);
            EXPECT_EQ(choice.exec_time, lib.exec_plans(cur)[0].exec_time);
            EXPECT_EQ(choice.used_space, floor_space);
        }

        // Short by a byte, the allocator must downgrade something,
        // unless every plan already is its front's smallest.
        bool all_smallest = lib.exec_plans(cur).size() == 1;
        for (size_t j = 0; j < k; ++j) {
            all_smallest = all_smallest &&
                           floor[j] + 1 == static_cast<int>(
                               lib.preload_plans(live[j], exec_idx[j])
                                   .size());
        }
        auto tight = alloc.allocate(cur, live, exec_idx, floor,
                                    floor_space - 1, scratch_);
        const bool moved =
            tight.exec_idx > 0 || tight.preload_idx != floor;
        EXPECT_EQ(moved, !all_smallest);
        if (tight.feasible) {
            EXPECT_LT(tight.used_space, floor_space);
            ++downgraded;
        }
    }
    EXPECT_GT(downgraded, 0);
}

}  // namespace
}  // namespace elk::compiler
