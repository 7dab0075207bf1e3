/**
 * @file
 * Property-style tests (parameterized sweeps) over the core
 * invariants: Pareto fronts, network conservation, scheduler
 * feasibility across models/chips, and plan-metric monotonicities.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "elk/compiler.h"
#include "plan/pareto.h"
#include "runtime/executor.h"
#include "sim/network.h"
#include "test_helpers.h"

namespace elk {
namespace {

// ---------------------------------------------------------------
// Pareto front properties over random point sets.
// ---------------------------------------------------------------

class ParetoProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoProperty, FrontIsMinimalAndComplete)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<uint64_t> mem(1, 1000);
    std::uniform_real_distribution<double> time(0.1, 10.0);
    struct P {
        uint64_t m;
        double t;
    };
    std::vector<P> pts;
    for (int i = 0; i < 200; ++i) {
        pts.push_back({mem(rng), time(rng)});
    }
    auto front = plan::pareto_front(
        pts, [](const P& p) { return p.m; },
        [](const P& p) { return p.t; });

    // 1) Front members are mutually non-dominated.
    for (size_t i = 1; i < front.size(); ++i) {
        EXPECT_LT(front[i].m, front[i - 1].m);
        EXPECT_GT(front[i].t, front[i - 1].t);
    }
    // 2) Every input point is dominated by (or equal to) some member.
    for (const auto& p : pts) {
        bool covered = false;
        for (const auto& f : front) {
            if (f.m <= p.m && f.t <= p.t) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// A point that remembers where it came from, so two points with the
/// same key stay distinguishable.
struct TaggedPoint {
    uint64_t m;
    double t;
    int id;
};

/// The reference front: sort by (memory, time) ascending, sweep for
/// strictly falling time, reverse. Which of two exactly tied points
/// survives is whichever the sort placed first.
std::vector<TaggedPoint>
sort_and_sweep(std::vector<TaggedPoint> points)
{
    std::sort(points.begin(), points.end(),
              [](const TaggedPoint& a, const TaggedPoint& b) {
                  if (a.m != b.m) {
                      return a.m < b.m;
                  }
                  return a.t < b.t;
              });
    std::vector<TaggedPoint> front;
    double best = std::numeric_limits<double>::infinity();
    for (const TaggedPoint& p : points) {
        if (p.t < best) {
            best = p.t;
            front.push_back(p);
        }
    }
    std::reverse(front.begin(), front.end());
    return front;
}

/**
 * Random point sets built to collide: few distinct memories and times
 * (runs of equal space and of equal time), copies of earlier keys
 * (exact ties), and the odd +infinity time. Sizes reach past
 * std::sort's insertion-sort cutoff, where tie order depends on the
 * whole input.
 */
std::vector<TaggedPoint>
colliding_points(std::mt19937_64& rng)
{
    std::uniform_int_distribution<int> size(0, 400);
    std::uniform_int_distribution<int> spread(1, 60);
    const int n = size(rng);
    const int mems = spread(rng);
    const int times = spread(rng);
    std::uniform_int_distribution<uint64_t> mem(1, mems);
    std::uniform_int_distribution<int> time(1, times);
    std::uniform_int_distribution<int> kind(0, 19);
    std::vector<TaggedPoint> pts;
    for (int i = 0; i < n; ++i) {
        TaggedPoint p{mem(rng), 0.25 * time(rng), i};
        const int k = kind(rng);
        if (k < 4 && !pts.empty()) {
            // Exact tie with an earlier point.
            const TaggedPoint& twin = pts[rng() % pts.size()];
            p.m = twin.m;
            p.t = twin.t;
        } else if (k == 4) {
            p.t = std::numeric_limits<double>::infinity();
        }
        pts.push_back(p);
    }
    return pts;
}

TEST(ParetoTieProperty, MatchesSortAndSweepElementForElement)
{
    std::mt19937_64 rng(20260);
    int tied = 0;
    int untied = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const std::vector<TaggedPoint> pts = colliding_points(rng);
        const std::vector<TaggedPoint> want = sort_and_sweep(pts);
        bool sorted = false;
        const std::vector<TaggedPoint> got = plan::pareto_front(
            pts, [](const TaggedPoint& p) { return p.m; },
            [](const TaggedPoint& p) { return p.t; }, &sorted);
        ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].id, want[i].id)
                << "trial " << trial << " front index " << i;
        }
        // The tie sort runs exactly when some front key is held by two
        // or more input points.
        size_t holders = 0;
        for (const TaggedPoint& p : pts) {
            holders += std::count_if(
                want.begin(), want.end(), [&](const TaggedPoint& f) {
                    return f.m == p.m && f.t == p.t;
                });
        }
        EXPECT_EQ(sorted, holders > want.size()) << "trial " << trial;
        (sorted ? tied : untied) += 1;
    }
    // Both paths ran often.
    EXPECT_GT(tied, 300);
    EXPECT_GT(untied, 300);
}

// ---------------------------------------------------------------
// Fluid network: work conservation and capacity limits under random
// flow populations.
// ---------------------------------------------------------------

class NetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(NetworkProperty, CapacityNeverExceededAndWorkConserved)
{
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> bytes(1.0, 100.0);
    std::uniform_int_distribution<int> tag(0, 2);
    sim::FluidNetwork net({100.0, 50.0});

    double total_bytes = 0.0;
    for (int i = 0; i < 12; ++i) {
        std::map<int, double> w;
        w[0] = 1.0;
        if (tag(rng) == 0) {
            w[1] = 0.5;
        }
        double b = bytes(rng);
        total_bytes += b;
        net.add_flow(b, std::move(w),
                     static_cast<sim::FlowTag>(tag(rng)));
        EXPECT_LE(net.resource_usage(0), 100.0 * (1 + 1e-9));
        EXPECT_LE(net.resource_usage(1), 50.0 * (1 + 1e-9));
    }

    // Drain and measure delivered bytes on resource 0 (weight 1.0).
    double delivered = 0.0;
    int guard = 0;
    while (net.num_active() > 0 && guard++ < 1000) {
        double dt = net.time_to_next_completion();
        ASSERT_TRUE(std::isfinite(dt));
        delivered += net.resource_usage(0) * dt;
        net.advance(dt);
    }
    EXPECT_EQ(net.num_active(), 0);
    EXPECT_NEAR(delivered, total_bytes, total_bytes * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------
// Plan enumeration invariants across operator shapes.
// ---------------------------------------------------------------

struct ShapeCase {
    long m, k, n;
};

class PlanProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(PlanProperty, FrontInvariants)
{
    auto h = testing::CompilerHarness::tiny();
    graph::Operator op;
    op.kind = graph::OpKind::kMatMul;
    op.name = "sweep";
    op.m = GetParam().m;
    op.k = GetParam().k;
    op.n = GetParam().n;
    op.param_bytes = static_cast<uint64_t>(op.k) * op.n * 2;
    op.act_in_bytes = static_cast<uint64_t>(op.m) * op.k * 2;
    op.act_out_bytes = static_cast<uint64_t>(op.m) * op.n * 2;
    graph::finalize_flops(op);

    auto front = plan::enumerate_exec_plans(op, h.ctx);
    ASSERT_FALSE(front.empty());
    for (size_t i = 0; i < front.size(); ++i) {
        const auto& p = front[i];
        EXPECT_LE(p.exec_space, h.ctx.sram_budget());
        EXPECT_LE(p.cores_used(), h.cfg.total_cores());
        EXPECT_GE(p.exec_time, p.compute_time);
        EXPECT_GE(p.fetch_bytes, 0.0);
        if (i > 0) {
            EXPECT_LT(p.exec_space, front[i - 1].exec_space);
            EXPECT_GT(p.time_cost(), front[i - 1].time_cost());
        }
        auto preloads = plan::enumerate_preload_plans(op, p, h.ctx);
        ASSERT_FALSE(preloads.empty());
        // Preload space never exceeds the execute-state residency;
        // the scatter floor applies when W is shared across cores
        // (chunk-streamed plans buffer only 1/repl_w).
        for (const auto& q : preloads) {
            EXPECT_LE(q.preload_space, p.w_resident() + 1);
            if (p.group_w > 1) {
                EXPECT_GE(q.gamma, 1.0 / p.group_w - 1e-12);
            } else {
                EXPECT_GE(q.gamma, 1.0 / p.repl_w - 1e-12);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanProperty,
    ::testing::Values(ShapeCase{8, 512, 1536}, ShapeCase{8, 512, 512},
                      ShapeCase{64, 256, 256}, ShapeCase{1, 512, 4096},
                      ShapeCase{8, 1536, 512}, ShapeCase{16, 64, 64}));

// ---------------------------------------------------------------
// End-to-end invariants across batch sizes and windows.
// ---------------------------------------------------------------

struct E2ECase {
    int batch;
    int seq;
    int window;
};

class EndToEndProperty : public ::testing::TestWithParam<E2ECase> {};

TEST_P(EndToEndProperty, CompiledPlansRunAndFit)
{
    auto base = testing::CompilerHarness::tiny();
    graph::Graph graph = graph::build_decode_graph(
        testing::tiny_llm_gqa(), GetParam().batch, GetParam().seq);
    compiler::Compiler comp(graph, base.cfg);
    compiler::CompileOptions opts;
    opts.mode = compiler::Mode::kElkFull;
    opts.max_window = GetParam().window;
    opts.max_orders = 6;
    auto result = comp.compile(opts);

    sim::Machine machine(base.cfg);
    auto run =
        runtime::run_plan(machine, graph, result.plan, comp.context());
    EXPECT_GT(run.total_time, 0.0);
    EXPECT_FALSE(run.memory_exceeded)
        << "peak " << run.peak_sram_per_core << " budget "
        << base.cfg.usable_sram_per_core();
    EXPECT_NEAR(run.preload_only + run.execute_only + run.overlapped,
                run.total_time, run.total_time * 1e-6 + 1e-9);
    EXPECT_LE(run.hbm_util, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndToEndProperty,
    ::testing::Values(E2ECase{4, 256, 8}, E2ECase{8, 512, 8},
                      E2ECase{16, 512, 16}, E2ECase{8, 1024, 4},
                      E2ECase{2, 128, 2}));

}  // namespace
}  // namespace elk
