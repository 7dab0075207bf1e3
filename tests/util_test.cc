/**
 * @file
 * Unit tests for util: statistics, tables, logging helpers, and the
 * thread pool's contract (every index exactly once, exceptions,
 * concurrent callers, inline pools, per-pool nesting).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace elk::util {
namespace {

using ::testing::Test;

TEST(UnitsTest, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(UnitsTest, Bandwidths)
{
    EXPECT_DOUBLE_EQ(gbps(5.5), 5.5e9);
    EXPECT_DOUBLE_EQ(tbps(16), 16e12);
    EXPECT_DOUBLE_EQ(tflops(1), 1e12);
}

TEST(UnitsTest, TimeConversions)
{
    EXPECT_DOUBLE_EQ(to_ms(0.5), 500.0);
    EXPECT_DOUBLE_EQ(to_us(1e-6), 1.0);
}

TEST(StatsTest, MeanAndStdev)
{
    std::vector<double> xs{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stdev(xs), 1.118, 1e-3);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stdev({5.0}), 0.0);
}

TEST(StatsTest, Percentile)
{
    std::vector<double> xs{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
}

TEST(StatsTest, PercentileSortedEdgeCases)
{
    // Empty input is defined as 0 (serving reports print 0 for an
    // empty latency set rather than dying).
    EXPECT_DOUBLE_EQ(percentile_sorted({}, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile_sorted({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentile_sorted({}, 100), 0.0);

    // A single element is every percentile.
    std::vector<double> one{7.5};
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 0), 7.5);
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 50), 7.5);
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 99), 7.5);
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 100), 7.5);

    // Exact-boundary ranks (p/100 * (n-1) integral) return the
    // element itself, no interpolation: n = 5 puts p25/p50/p75 on
    // indices 1/2/3 exactly.
    std::vector<double> xs{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 25), 20.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 75), 40.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 100), 50.0);
    // And an off-boundary rank interpolates linearly between its
    // neighbors: p90 of 5 elements sits at rank 3.6.
    EXPECT_DOUBLE_EQ(percentile_sorted(xs, 90), 46.0);
}

TEST(StatsTest, MapeSkipsZeroMeasurements)
{
    std::vector<double> measured{0.0, 100.0};
    std::vector<double> predicted{5.0, 110.0};
    EXPECT_NEAR(mape(measured, predicted), 0.10, 1e-12);
}

TEST(StatsTest, PerfectPredictionRSquared)
{
    std::vector<double> m{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(r_squared(m, m), 1.0);
}

TEST(StatsTest, RSquaredPenalizesBias)
{
    std::vector<double> m{1, 2, 3, 4};
    std::vector<double> p{2, 3, 4, 5};
    EXPECT_LT(r_squared(m, p), 1.0);
}

TEST(StatsTest, WeightedMean)
{
    WeightedMean wm;
    wm.add(1.0, 0.0);
    wm.add(3.0, 1.0);
    EXPECT_DOUBLE_EQ(wm.value(), 0.75);
    EXPECT_DOUBLE_EQ(wm.weight(), 4.0);
}

TEST(TableTest, TextRendering)
{
    Table t({"a", "bb"});
    t.add("x", 1.0);
    t.add("longer", 2.5);
    std::string text = t.to_text();
    EXPECT_NE(text.find("longer"), std::string::npos);
    EXPECT_NE(text.find("2.500"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvRendering)
{
    Table t({"h1", "h2"});
    t.add(1, 2);
    EXPECT_EQ(t.to_csv(), "h1,h2\n1,2\n");
}

TEST(TableTest, DoubleFormatting)
{
    EXPECT_EQ(Table::format_cell(0.0), "0");
    EXPECT_EQ(Table::format_cell(123.456), "123.5");
    EXPECT_EQ(Table::format_cell(1.5), "1.500");
    // Very large and very small use scientific notation.
    EXPECT_NE(Table::format_cell(1e9).find("e"), std::string::npos);
    EXPECT_NE(Table::format_cell(1e-6).find("e"), std::string::npos);
}

/// Calls parallel_for(n) on @p pool; returns how often each index ran.
std::vector<int>
visit_counts(ThreadPool& pool, int n)
{
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(n, [&](int i) { counts[i].fetch_add(1); });
    return {counts.begin(), counts.end()};
}

// Far more indices than runners: the range is chunked and stolen, yet
// every index runs exactly once.
TEST(ThreadPoolContractTest, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(3);
    for (int n : {1, 2, 5, 10007}) {
        EXPECT_EQ(visit_counts(pool, n), std::vector<int>(n, 1))
            << "n = " << n;
    }
}

// An exception thrown by a task reaches the caller once the batch has
// drained, and leaves the pool usable for the next batch.
TEST(ThreadPoolContractTest, ExceptionReachesCallerAndPoolRecovers)
{
    ThreadPool pool(3);
    try {
        pool.parallel_for(1000, [](int i) {
            if (i == 617) {
                throw std::runtime_error("index 617 failed");
            }
        });
        ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 617 failed");
    }
    EXPECT_EQ(visit_counts(pool, 1000), std::vector<int>(1000, 1));
}

// Two external threads sharing one pool each get their own batch: each
// sees every one of its indices exactly once.
TEST(ThreadPoolContractTest, ConcurrentCallersEachSeeEveryIndex)
{
    ThreadPool pool(3);
    constexpr int kN = 5000;
    std::vector<int> got[2];
    std::thread callers[2];
    for (int t = 0; t < 2; ++t) {
        callers[t] = std::thread([&, t] { got[t] = visit_counts(pool, kN); });
    }
    for (auto& c : callers) {
        c.join();
    }
    for (const auto& counts : got) {
        EXPECT_EQ(counts, std::vector<int>(kN, 1));
    }
}

// A 0- or 1-thread pool spawns no workers: every index runs on the
// caller.
TEST(ThreadPoolContractTest, InlinePoolsRunOnTheCaller)
{
    for (int threads : {0, 1}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), 0);
        std::vector<int> counts(100, 0);
        std::set<std::thread::id> runners;
        pool.parallel_for(100, [&](int i) {
            ++counts[i];
            runners.insert(std::this_thread::get_id());
        });
        EXPECT_EQ(counts, std::vector<int>(100, 1)) << threads << " threads";
        EXPECT_EQ(runners, std::set<std::thread::id>{
                               std::this_thread::get_id()});
    }
}

// A parallel_for on a pool from inside one of that pool's own tasks
// runs inline on the task's thread (re-entering the queues could
// deadlock the outer batch) and still visits every index.
TEST(ThreadPoolNestingTest, SamePoolNestingRunsInline)
{
    ThreadPool pool(3);
    constexpr int kOuter = 4;
    constexpr int kInner = 50;
    std::mutex mu;
    std::vector<std::set<std::thread::id>> inner_threads(kOuter);
    std::vector<std::thread::id> outer_thread(kOuter);
    std::atomic<int> visits{0};
    pool.parallel_for(kOuter, [&](int o) {
        outer_thread[o] = std::this_thread::get_id();
        pool.parallel_for(kInner, [&](int) {
            visits.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            inner_threads[o].insert(std::this_thread::get_id());
        });
    });
    EXPECT_EQ(visits.load(), kOuter * kInner);
    for (int o = 0; o < kOuter; ++o) {
        EXPECT_EQ(inner_threads[o],
                  std::set<std::thread::id>{outer_thread[o]})
            << "outer task " << o;
    }
}

// A parallel_for on pool B issued from a task of pool A fans out on
// B's workers: the guard is per pool, so a replica serve running on
// one pool still compiles in parallel on another.
TEST(ThreadPoolNestingTest, OtherPoolFromTaskFansOut)
{
    ThreadPool a(2);
    ThreadPool b(3);
    constexpr int kInner = 64;
    std::mutex mu;
    std::set<std::thread::id> inner_threads;
    std::atomic<int> visits{0};
    a.parallel_for(2, [&](int o) {
        if (o != 0) {
            return;
        }
        b.parallel_for(kInner, [&](int) {
            visits.fetch_add(1);
            {
                std::lock_guard<std::mutex> lock(mu);
                inner_threads.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        });
    });
    EXPECT_EQ(visits.load(), kInner);
    EXPECT_GT(inner_threads.size(), 1u);
}

}  // namespace
}  // namespace elk::util
