/**
 * @file
 * Golden plan corpus: committed FNV-1a digests of
 * ExecutionPlan::serialize_bits() for compiles on the tiny harness (all
 * five modes), for real Llama2-13B serving buckets, and for direct
 * InductiveScheduler::schedule calls over seeded preload orders and a
 * grid of scheduling knobs. Infeasible orders digest as "nullopt".
 * The Llama2-13B buckets also pin every field of their execute-state
 * fronts, the plan library's enumeration counters, schedule-elk's
 * candidate count and the scheduler's work counters, and a property checks
 * that overhead weights with equal anchor tables schedule alike.
 * A scheduler or allocator refactor must keep every digest; regenerate
 * the tables only for an intended change of compiled plans. A mismatch
 * prints the case and the actual digest.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "elk/compiler.h"
#include "elk/inductive_scheduler.h"
#include "elk/preload_reorder.h"
#include "graph/model_builder.h"
#include "graph/model_config.h"
#include "hw/chip_config.h"
#include "test_helpers.h"
#include "util/bits.h"

namespace elk::compiler {
namespace {

constexpr Mode kModes[] = {Mode::kBasic, Mode::kStatic, Mode::kElkDyn,
                           Mode::kElkFull, Mode::kIdeal};

/// Mixes one schedule outcome: the plan's bits, or a "nullopt" token.
void
mix_plan(util::Fnv1a& digest, const std::optional<ExecutionPlan>& plan)
{
    const std::string bits = plan ? plan->serialize_bits() : "nullopt";
    digest.mix(bits.data(), bits.size());
}

util::Fnv1a
digest_of(const std::optional<ExecutionPlan>& plan)
{
    util::Fnv1a digest;
    mix_plan(digest, plan);
    return digest;
}

/**
 * Seeded preload orders over @p library: the generator's candidates
 * (identity first), then the identity rotated to issue operator 0 last
 * (an infeasible order), then that rotated again by half its length.
 */
std::vector<std::vector<int>>
seeded_orders(const PlanLibrary& library, int max_candidates)
{
    auto orders =
        generate_candidate_orders(library, max_candidates, nullptr);
    std::vector<int> rotated(library.graph().size());
    std::iota(rotated.begin(), rotated.end(), 0);
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    orders.push_back(rotated);
    std::rotate(rotated.begin(), rotated.begin() + rotated.size() / 2,
                rotated.end());
    orders.push_back(rotated);
    return orders;
}

/// One scheduler-corpus case: knobs plus the digest over every order.
struct ScheduleCase {
    int max_window;
    double overhead_weight;
    int limit_ops;
    uint64_t digest;

    std::string
    describe() const
    {
        std::ostringstream out;
        out << "max_window=" << max_window
            << " overhead_weight=" << overhead_weight
            << " limit_ops=" << limit_ops;
        return out.str();
    }
};

/// Digest of schedule() over @p orders under one case's knobs.
util::Fnv1a
schedule_digest(const InductiveScheduler& sched,
                const std::vector<std::vector<int>>& orders,
                const ScheduleCase& c)
{
    ScheduleOptions opts;
    opts.max_window = c.max_window;
    opts.overhead_weight = c.overhead_weight;
    opts.limit_ops = c.limit_ops;
    util::Fnv1a digest;
    for (const auto& order : orders) {
        mix_plan(digest, sched.schedule(order, opts));
    }
    return digest;
}

// --- tiny harness ---------------------------------------------------------

/// Per mode, in kModes order.
constexpr uint64_t kTinyModeDigests[] = {
    0x06b235b2a153218bull, 0x4858a3bc75bbd987ull, 0x85d8b1faf4d7b12eull,
    0xdfeec256ca3bec48ull, 0x893b6b199a57630full,
};

TEST(PlanGoldenTest, TinyHarnessAllModes)
{
    auto h = testing::CompilerHarness::tiny();
    for (int jobs : {1, 4}) {
        Compiler compiler(h.graph, h.cfg, nullptr, jobs);
        for (size_t m = 0; m < std::size(kModes); ++m) {
            CompileOptions opts;
            opts.mode = kModes[m];
            auto actual = digest_of(compiler.compile(opts).plan);
            EXPECT_EQ(actual.value(), kTinyModeDigests[m])
                << "tiny " << mode_name(kModes[m]) << " jobs=" << jobs
                << " digest 0x" << actual.hex();
        }
    }
}

constexpr ScheduleCase kTinyScheduleCases[] = {
    {28, 1.0, 0, 0x44456a184bb84129ull},
    {28, 0.0, 0, 0x44456a184bb84129ull},
    {28, 1e9, 0, 0xa300df16ff8c2091ull},
    {28, 0.25, 20, 0xc3cb519da5ee4cc8ull},
    {12, 4.0, 0, 0x324e6515b237f68full},
    {12, 1.0, 20, 0x1de96f07010a0488ull},
    {3, 1.0, 0, 0xbb35d8b621dd423full},
    {3, 0.0, 20, 0x496381bf4db81e73ull},
    {3, 1e9, 0, 0x52983c24b6acd719ull},
    {1, 1.0, 0, 0x7fb0f5c7c89599b4ull},
    {1, 4.0, 20, 0x49a5231572c25b2bull},
    {2, 0.25, 7, 0xea0d88acda7d384cull},
};

TEST(PlanGoldenTest, TinySchedulerCorpus)
{
    auto h = testing::CompilerHarness::tiny();
    const InductiveScheduler sched(*h.library);
    const auto orders = seeded_orders(*h.library, 16);
    // The corpus covers a reordered feasible plan and a rejected order.
    ASSERT_GT(orders.size(), 3u);
    EXPECT_TRUE(sched.schedule(orders[1]).has_value());
    EXPECT_FALSE(sched.schedule(orders[orders.size() - 2]).has_value());
    for (const ScheduleCase& c : kTinyScheduleCases) {
        auto actual = schedule_digest(sched, orders, c);
        EXPECT_EQ(actual.value(), c.digest)
            << "tiny schedule " << c.describe() << " digest 0x"
            << actual.hex();
    }
}

/**
 * The premise of schedule-elk's deduplicated sweep: at every sweep
 * window, each weight that overhead_weight_groups() folds into an
 * earlier one schedules a plan bit-identical to that weight's. Returns
 * the number of folded (window, weight) pairs checked.
 */
int
expect_weight_groups_schedule_alike(const PlanLibrary& library,
                                    const std::string& what)
{
    const InductiveScheduler sched(library);
    const std::vector<int> group = overhead_weight_groups(sched);
    EXPECT_EQ(group.size(), std::size(kOverheadWeights));
    int folded = 0;
    for (int w : sweep_windows(CompileOptions{}.max_window)) {
        for (int k = 0; k < static_cast<int>(group.size()); ++k) {
            EXPECT_LE(group[k], k);
            if (group[k] == k) {
                continue;
            }
            ScheduleOptions first;
            first.max_window = w;
            first.overhead_weight = kOverheadWeights[group[k]];
            ScheduleOptions folded_in = first;
            folded_in.overhead_weight = kOverheadWeights[k];
            EXPECT_EQ(digest_of(sched.schedule_in_order(folded_in)).value(),
                      digest_of(sched.schedule_in_order(first)).value())
                << what << " window " << w << ": weight "
                << kOverheadWeights[k] << " vs "
                << kOverheadWeights[group[k]];
            ++folded;
        }
    }
    return folded;
}

TEST(PlanGoldenTest, TinyWeightGroupsScheduleAlike)
{
    auto h = testing::CompilerHarness::tiny();
    EXPECT_GT(expect_weight_groups_schedule_alike(*h.library, "tiny"), 0);
}

// --- Llama2-13B serving buckets -------------------------------------------

/// One real serving bucket on the POD4 chip.
struct Bucket {
    const char* name;
    bool prefill;
    int batch;
    int len;
};

constexpr Bucket kBuckets[] = {
    {"decode b1", false, 1, 2048},
    {"prefill b1xL256", true, 1, 256},
};

graph::Graph
bucket_graph(const Bucket& b)
{
    return b.prefill
               ? graph::build_forward_graph(graph::llama2_13b(), b.batch,
                                            b.len)
               : graph::build_decode_graph(graph::llama2_13b(), b.batch,
                                           b.len);
}

/// Per bucket: Elk-Dyn, Elk-Full.
constexpr uint64_t kBucketDigests[][2] = {
    {0x6dc3aee1de90cdbbull, 0x85d8b58595c4561dull},
    {0x3b2c099d57ae0675ull, 0x949aad1fe445770bull},
};

/// Per bucket: SearchStats::candidates_scheduled of both modes, out of
/// the sweep's 8 windows x 5 weights = 40 candidates.
constexpr int kBucketCandidatesScheduled[] = {8, 24};

/**
 * Per bucket, Elk-Dyn then Elk-Full: SearchStats::frontiers_tested and
 * allocator_calls, summed over every schedule() of the compile. Before
 * the floor-fit fast path, schedule() called the allocator at every
 * priced frontier: 47054 / 93942 allocate() calls on decode b1 and
 * 130756 / 178093 on prefill b1xL256. On prefill the identity order
 * wins the order search, whose full-model re-schedule of it (15501
 * frontiers, 2557 allocator calls) preload-order-search now skips:
 * it rebuilt the plan schedule-elk had already produced.
 */
constexpr ScheduleWork kBucketScheduleWork[][2] = {
    {{47054, 0}, {93942, 0}},
    {{130756, 13586}, {162592, 17006}},
};

/**
 * Per bucket: every field of every execute-state front, op by op. The
 * fronts also pin the exact-tie order: where two factorizations tie on
 * (exec_space, time_cost) exactly, the front keeps whichever the sort
 * placed first, which depends on the enumeration order and on the
 * comparator alone.
 */
constexpr uint64_t kBucketFrontDigests[] = {
    0xf2d7ad18f3fe85d3ull,
    0xd68d5ed8c3231982ull,
};

/**
 * Per bucket: the plan library's enumeration counters, the feasible
 * execute plans it scored and the fronts whose exact tie needed the
 * sort (plan::EnumerationStats). They change only when enumeration
 * visits other candidates or the tie rule changes.
 */
constexpr plan::EnumerationStats kBucketEnumerationStats[] = {
    {161097, 2},
    {138190, 7},
};

util::Fnv1a
exec_front_digest(const PlanLibrary& library)
{
    util::Fnv1a digest;
    for (int i = 0; i < library.graph().size(); ++i) {
        const auto& front = library.exec_plans(i);
        digest.mix_value(static_cast<uint64_t>(front.size()));
        for (const plan::ExecPlan& p : front) {
            digest.mix_value(p.parts_rows);
            digest.mix_value(p.parts_cols);
            digest.mix_value(p.parts_k);
            digest.mix_value(p.repl_a);
            digest.mix_value(p.repl_w);
            digest.mix_value(p.tile_rows);
            digest.mix_value(p.tile_cols);
            digest.mix_value(p.tile_k);
            digest.mix_value(p.a_need);
            digest.mix_value(p.w_need);
            digest.mix_value(p.out_bytes);
            digest.mix_value(p.group_a);
            digest.mix_value(p.group_w);
            digest.mix_value(p.exec_space);
            digest.mix_value(p.fetch_bytes);
            digest.mix_value(p.reduce_bytes);
            digest.mix_value(p.hbm_stream_bytes);
            digest.mix_value(p.compute_time);
            digest.mix_value(p.exec_time);
            digest.mix_value(p.fabric_time);
        }
    }
    return digest;
}

TEST(PlanGoldenTest, Llama2BucketExecFronts)
{
    const hw::ChipConfig chip = hw::ChipConfig::ipu_pod4();
    for (size_t b = 0; b < std::size(kBuckets); ++b) {
        const graph::Graph graph = bucket_graph(kBuckets[b]);
        Compiler compiler(graph, chip, nullptr, /*jobs=*/4);
        auto actual = exec_front_digest(compiler.library());
        EXPECT_EQ(actual.value(), kBucketFrontDigests[b])
            << kBuckets[b].name << " exec fronts digest 0x"
            << actual.hex();
        const plan::EnumerationStats& stats =
            compiler.library().enumeration_stats();
        EXPECT_EQ(stats.exec_points, kBucketEnumerationStats[b].exec_points)
            << kBuckets[b].name;
        EXPECT_EQ(stats.tied_fronts, kBucketEnumerationStats[b].tied_fronts)
            << kBuckets[b].name;
    }
}

/// Per bucket: the scheduler corpus over the bucket's own library.
constexpr ScheduleCase kBucketScheduleCases[][2] = {
    {{28, 1.0, 0, 0x4e3000b59c1865e5ull},
     {8, 0.25, 120, 0x07cb27282cee5c2dull}},
    {{28, 1.0, 0, 0xd74c8d6c47da0a19ull},
     {8, 0.25, 120, 0x187e69bc02151c4eull}},
};

TEST(PlanGoldenTest, Llama2BucketsCompileAndSchedule)
{
    const hw::ChipConfig chip = hw::ChipConfig::ipu_pod4();
    ScheduleWork total;
    for (size_t b = 0; b < std::size(kBuckets); ++b) {
        const graph::Graph graph = bucket_graph(kBuckets[b]);
        Compiler compiler(graph, chip, nullptr, /*jobs=*/4);
        const Mode modes[] = {Mode::kElkDyn, Mode::kElkFull};
        for (size_t m = 0; m < std::size(modes); ++m) {
            CompileOptions opts;
            opts.mode = modes[m];
            const CompileResult result = compiler.compile(opts);
            auto actual = digest_of(result.plan);
            EXPECT_EQ(actual.value(), kBucketDigests[b][m])
                << kBuckets[b].name << " " << mode_name(modes[m])
                << " digest 0x" << actual.hex();
            EXPECT_EQ(result.stats.candidates_scheduled,
                      kBucketCandidatesScheduled[b])
                << kBuckets[b].name << " " << mode_name(modes[m]);
            EXPECT_LT(result.stats.candidates_scheduled, 40);
            EXPECT_EQ(result.stats.exec_points,
                      kBucketEnumerationStats[b].exec_points)
                << kBuckets[b].name << " " << mode_name(modes[m]);
            EXPECT_EQ(result.stats.tied_fronts,
                      kBucketEnumerationStats[b].tied_fronts)
                << kBuckets[b].name << " " << mode_name(modes[m]);
            const ScheduleWork& work = kBucketScheduleWork[b][m];
            EXPECT_EQ(result.stats.frontiers_tested, work.frontiers_tested)
                << kBuckets[b].name << " " << mode_name(modes[m]);
            EXPECT_EQ(result.stats.allocator_calls, work.allocator_calls)
                << kBuckets[b].name << " " << mode_name(modes[m]);
            total.frontiers_tested += result.stats.frontiers_tested;
            total.allocator_calls += result.stats.allocator_calls;
        }
        EXPECT_GT(expect_weight_groups_schedule_alike(compiler.library(),
                                                      kBuckets[b].name),
                  0);

        const InductiveScheduler sched(compiler.library());
        const auto orders = seeded_orders(compiler.library(), 4);
        for (const ScheduleCase& c : kBucketScheduleCases[b]) {
            auto actual = schedule_digest(sched, orders, c);
            EXPECT_EQ(actual.value(), c.digest)
                << kBuckets[b].name << " schedule " << c.describe()
                << " digest 0x" << actual.hex();
        }
    }
    // Across the buckets the fast path spares at least 90% of the
    // allocator calls made before it (one per priced frontier).
    EXPECT_LE(10 * total.allocator_calls, total.frontiers_tested);
}

}  // namespace
}  // namespace elk::compiler
