/**
 * @file
 * Unit tests for the §4.2 two-level inductive scheduler.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "elk/inductive_scheduler.h"
#include "test_helpers.h"

namespace elk::compiler {
namespace {

class SchedulerTest : public ::testing::Test {
  protected:
    SchedulerTest() : h_(testing::CompilerHarness::tiny()) {}
    testing::CompilerHarness h_;
};

TEST_F(SchedulerTest, IdentityOrderSchedules)
{
    InductiveScheduler sched(*h_.library);
    auto plan = sched.schedule_in_order();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(static_cast<int>(plan->ops.size()), h_.graph.size());
    EXPECT_GT(plan->est_total_time, 0.0);
}

TEST_F(SchedulerTest, PreloadPrecedesExecution)
{
    InductiveScheduler sched(*h_.library);
    auto plan = sched.schedule_in_order();
    ASSERT_TRUE(plan.has_value());
    // Every op appears exactly once in the preload order, at a slot
    // no later than its own execution.
    std::vector<int> seen(h_.graph.size(), 0);
    for (size_t r = 0; r < plan->preload_order.size(); ++r) {
        int op = plan->preload_order[r];
        ++seen[op];
        EXPECT_LE(plan->issue_slot[r], op);
    }
    for (int s : seen) {
        EXPECT_EQ(s, 1);
    }
}

TEST_F(SchedulerTest, SlotsMonotone)
{
    InductiveScheduler sched(*h_.library);
    auto plan = sched.schedule_in_order();
    ASSERT_TRUE(plan.has_value());
    for (size_t r = 1; r < plan->issue_slot.size(); ++r) {
        EXPECT_GE(plan->issue_slot[r], plan->issue_slot[r - 1]);
    }
}

TEST_F(SchedulerTest, SchedulesOverlapAtAll)
{
    // The whole point of the pass: at least some preloads must be
    // issued ahead of their own execute slot.
    InductiveScheduler sched(*h_.library);
    auto plan = sched.schedule_in_order();
    ASSERT_TRUE(plan.has_value());
    int ahead = 0;
    for (size_t r = 0; r < plan->preload_order.size(); ++r) {
        if (plan->issue_slot[r] < plan->preload_order[r]) {
            ++ahead;
        }
    }
    EXPECT_GT(ahead, h_.graph.size() / 4);
}

TEST_F(SchedulerTest, WindowCapRespected)
{
    InductiveScheduler sched(*h_.library);
    ScheduleOptions opts;
    opts.max_window = 2;
    auto plan = sched.schedule_in_order(opts);
    ASSERT_TRUE(plan.has_value());
    // With a tiny window, at any execute slot at most max_window + 1
    // preloads may be pending (issued, not executed).
    for (int i = 0; i < h_.graph.size(); ++i) {
        int live = 0;
        for (size_t r = 0; r < plan->preload_order.size(); ++r) {
            int op = plan->preload_order[r];
            if (plan->issue_slot[r] <= i && op > i) {
                ++live;
            }
        }
        EXPECT_LE(live, opts.max_window + 1) << "at execute " << i;
    }
}

TEST_F(SchedulerTest, TruncatedScheduleCoversPrefix)
{
    InductiveScheduler sched(*h_.library);
    ScheduleOptions opts;
    opts.limit_ops = 10;
    auto plan = sched.schedule_in_order(opts);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->ops.size(), 10u);
}

TEST_F(SchedulerTest, LargerWindowNotWorse)
{
    InductiveScheduler sched(*h_.library);
    ScheduleOptions narrow;
    narrow.max_window = 1;
    ScheduleOptions wide;
    wide.max_window = 16;
    auto p_narrow = sched.schedule_in_order(narrow);
    auto p_wide = sched.schedule_in_order(wide);
    ASSERT_TRUE(p_narrow.has_value());
    ASSERT_TRUE(p_wide.has_value());
    EXPECT_LE(p_wide->est_total_time,
              p_narrow->est_total_time * 1.02);
}

TEST_F(SchedulerTest, InvalidOrderRejected)
{
    // An order that preloads the last operator first cannot fit: all
    // other preload spaces would have to coexist with it.
    InductiveScheduler sched(*h_.library);
    std::vector<int> order(h_.graph.size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
    }
    // Move op 0's preload to the very end: executing op 0 then
    // requires every preceding preload issued first.
    std::rotate(order.begin(), order.begin() + 1, order.end());
    ScheduleOptions opts;
    opts.max_window = 4;
    auto plan = sched.schedule(order, opts);
    // Either infeasible or dramatically worse than identity.
    auto identity = sched.schedule_in_order(opts);
    ASSERT_TRUE(identity.has_value());
    if (plan.has_value()) {
        EXPECT_GT(plan->est_total_time, identity->est_total_time);
    }
}

using SchedulerDeathTest = SchedulerTest;

TEST_F(SchedulerDeathTest, NonPermutationOrderRejected)
{
    // A duplicate, out-of-range or negative id would corrupt the
    // position index; the order must be rejected up front.
    InductiveScheduler sched(*h_.library);
    std::vector<int> order(h_.graph.size());
    std::iota(order.begin(), order.end(), 0);

    std::vector<int> repeated = order;
    repeated[1] = repeated[0];
    EXPECT_DEATH(sched.schedule(repeated),
                 "not a permutation of operator ids.*id 0 repeated");

    std::vector<int> too_large = order;
    too_large[0] = h_.graph.size();
    EXPECT_DEATH(sched.schedule(too_large), "out of range");

    std::vector<int> negative = order;
    negative[0] = -1;
    EXPECT_DEATH(sched.schedule(negative), "id -1 out of range");
}

TEST_F(SchedulerTest, PreloadDurationRoofline)
{
    InductiveScheduler sched(*h_.library);
    int heavy = -1;
    for (const auto& op : h_.graph.ops()) {
        if (op.hbm_bytes() > 0 &&
            op.kind == graph::OpKind::kMatMul) {
            heavy = op.id;
            break;
        }
    }
    ASSERT_GE(heavy, 0);
    const auto& pre = h_.library->preload_plans(heavy, 0);
    double d = sched.preload_duration(heavy, pre.front());
    // Chunk-streamed plans defer part of the DRAM traffic to
    // execution; the preload floor covers the loaded fraction.
    double dram_floor =
        static_cast<double>(h_.graph.op(heavy).hbm_bytes()) *
        pre.front().dram_fraction / h_.cfg.hbm_total_bw;
    EXPECT_GE(d, dram_floor);
}

}  // namespace
}  // namespace elk::compiler
