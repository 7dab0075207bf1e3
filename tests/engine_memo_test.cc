/**
 * @file
 * The engine's iteration memo (EngineState::begin_memo): a replayed
 * run leaves the state exactly where stepping would have — result
 * bits, clock, weight and KV pools and counters — across stale and
 * pressure eviction, KV segments that come, grow and go between runs,
 * and a park/resume in the middle; its results carry no per-op timing
 * while begin()'s do; a full memo overwrites its oldest entry; the
 * SRAM headroom guard is exact to the byte; a run that met pressure
 * replays only from a KV-free pool at its own occupancy; the watch
 * rule is strict; parked runs are never recorded; a freed program's
 * address never aliases a new program; and a program the state has
 * not seen is still validated. Stale eviction keeps the first exec
 * index of a duplicated id, whether the op ids ascend or not.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"

namespace elk::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SimOp
make_op(int id, double dram, double exec_time, uint64_t preload_space,
        uint64_t exec_space)
{
    SimOp op;
    op.op_id = id;
    op.dram_bytes = dram;
    op.delivery_bytes = dram;
    op.exec_local_time = exec_time;
    op.preload_space = preload_space;
    op.exec_space = exec_space;
    op.flops = 1e6;
    return op;
}

/// Ops @p first_id.. with the given per-op preload spaces and HBM
/// volumes (dram[i] x @p dram_unit); finalized.
std::shared_ptr<const SimProgram>
make_program(int first_id, const std::vector<uint64_t>& spaces,
             const std::vector<double>& dram, double dram_unit,
             uint64_t exec_space)
{
    auto prog = std::make_shared<SimProgram>();
    for (size_t i = 0; i < spaces.size(); ++i) {
        prog->ops.push_back(make_op(first_id + static_cast<int>(i),
                                    dram[i] * dram_unit,
                                    1e-4 * static_cast<double>(i + 1),
                                    spaces[i], exec_space));
    }
    prog->finalize_default_order();
    return prog;
}

/// @p r's bits without its per-op timing, which memo results omit.
std::string
untimed_bits(SimResult r)
{
    r.timing.clear();
    return r.serialize_bits();
}

/// Three ops with one footprint and HBM volume.
std::shared_ptr<const SimProgram>
small_program(double dram)
{
    return make_program(0, {4096, 4096, 4096}, {1, 1, 1}, dram, 8192);
}

/// One step of a schedule: optionally KV calls and a new residency
/// budget, then one program run — interrupted by @p nested at the
/// first step boundary at least @p watch_in past the run's start, when
/// set.
struct Scheduled {
    Scheduled(std::shared_ptr<const SimProgram> run,
              std::shared_ptr<const SimProgram> interrupter = nullptr)
        : program(std::move(run)), nested(std::move(interrupter))
    {
    }

    std::shared_ptr<const SimProgram> program;
    std::shared_ptr<const SimProgram> nested;
    double watch_in = 0.0;
    uint64_t budget = 0;  ///< set before the run when non-zero.
    /// KV calls made before the run, when set.
    std::function<void(EngineState&)> kv;
};

/// Drives @p run on @p state: plain begin()/step() when !@p memo, the
/// memo path otherwise; the watcher mirrors the serving runtime's.
SimResult
drive(EngineState& state, const Scheduled& run, bool memo)
{
    if (run.kv) {
        run.kv(state);
    }
    if (run.budget != 0) {
        state.set_residency_budget(run.budget);
    }
    const double watch = run.nested ? state.now() + run.watch_in : kInf;
    if (memo) {
        state.begin_memo(run.program, watch);
    } else {
        state.begin(*run.program);
    }
    bool parked_once = false;
    while (state.step()) {
        if (!parked_once && watch <= state.now()) {
            parked_once = true;
            EngineState::Parked parked = state.park();
            if (memo) {
                state.begin_memo(run.nested, kInf);
            } else {
                state.begin(*run.nested);
            }
            while (state.step()) {
            }
            state.finish();
            state.resume(std::move(parked));
        }
    }
    return state.finish();
}

/// Asserts two states indistinguishable through their counters.
void
expect_same_state(const EngineState& a, const EngineState& b)
{
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.resident_op_ids(), b.resident_op_ids());
    EXPECT_EQ(a.resident_bytes(), b.resident_bytes());
    EXPECT_EQ(a.resident_hits(), b.resident_hits());
    EXPECT_EQ(a.resident_evictions(), b.resident_evictions());
    EXPECT_EQ(a.kv_bytes(), b.kv_bytes());
    EXPECT_EQ(a.kv_bytes_peak(), b.kv_bytes_peak());
    EXPECT_EQ(a.kv_evictions(), b.kv_evictions());
}

/// What the memo state went through over a schedule.
struct ScheduleStats {
    int64_t replays = 0;
    int64_t kv_replays = 0;  ///< replays of runs begun with KV in SRAM.
    int64_t kv_evictions = 0;
    std::vector<bool> replayed;  ///< per run of the schedule.
};

/// Runs @p schedule on two states — plain on one, through the memo on
/// the other — asserting after every run that they are identical.
ScheduleStats
expect_replay_exact(const Machine& machine, EngineState::Options opts,
                    const std::vector<Scheduled>& schedule)
{
    EngineState a(machine, opts);
    EngineState b(machine, opts);
    ScheduleStats stats;
    for (size_t i = 0; i < schedule.size(); ++i) {
        const int64_t before = b.replays();
        SimResult ra = drive(a, schedule[i], /*memo=*/false);
        SimResult rb = drive(b, schedule[i], /*memo=*/true);
        stats.replayed.push_back(b.replays() > before);
        // A replayed run never touches the KV pool.
        if (b.replays() > before && b.kv_bytes() > 0) {
            ++stats.kv_replays;
        }
        SCOPED_TRACE(i);
        EXPECT_EQ(ra.timing.size(), schedule[i].program->ops.size());
        EXPECT_TRUE(rb.timing.empty());
        EXPECT_EQ(untimed_bits(ra), rb.serialize_bits());
        expect_same_state(a, b);
        if (::testing::Test::HasFailure()) {
            break;
        }
    }
    EXPECT_EQ(a.replays(), 0);
    stats.replays = b.replays();
    stats.kv_evictions = b.kv_evictions();
    return stats;
}

constexpr uint64_t kKiB = 1024;  // tiny(16): 60 KiB usable SRAM per core

/// The programs of the tests below, on tiny(16) with a 30 KiB budget.
class EngineMemoTest : public ::testing::Test {
  protected:
    EngineMemoTest()
        : machine_(hw::ChipConfig::tiny(16)),
          dram_(machine_.config().hbm_total_bw * 1e-5)
    {
        const uint64_t k = kKiB;
        // Two decode buckets over op ids 0..5; the second compiles ops
        // 1 and 4 to other footprints, so switching buckets
        // stale-evicts them.
        const std::vector<double> volumes = {1, 1, 1, 1.5, 1.5, 1.5};
        decode_a_ = make_program(0, {4 * k, 4 * k, 4 * k, 4 * k, 4 * k, 4 * k},
                                 volumes, dram_, 6 * k);
        decode_b_ = make_program(0, {4 * k, 3 * k, 4 * k, 4 * k, 3 * k, 4 * k},
                                 volumes, dram_, 6 * k);
        // Halves of decode_a: each refreshes the recency of its own
        // entries only.
        decode_lo_ =
            make_program(0, {4 * k, 4 * k, 4 * k}, {1, 1, 1}, dram_, 6 * k);
        decode_hi_ = make_program(3, {4 * k, 4 * k, 4 * k}, {1.5, 1.5, 1.5},
                                  dram_, 6 * k);
        // A prefill program whose executes overflow SRAM next to the
        // decode residents: pressure eviction.
        prefill_ = make_program(100, {8 * k, 8 * k, 8 * k}, {2, 2, 2}, dram_,
                                40 * k);
        // Executes that overflow SRAM next to even three 4 KiB decode
        // residents, and no HBM volume, so nothing to retain: the pool
        // it leaves is only what pressure eviction spared.
        pressure_ = make_program(100, {8 * k, 8 * k, 8 * k}, {0, 0, 0},
                                 dram_, 52 * k);
    }

    EngineState::Options
    options() const
    {
        EngineState::Options opts;
        opts.residency_budget = 30 * kKiB;
        return opts;
    }

    Machine machine_;
    double dram_;
    std::shared_ptr<const SimProgram> decode_a_, decode_b_, decode_lo_,
        decode_hi_, prefill_, pressure_;
};

// The memo's equivalence on a fixed pseudo-random schedule: pool
// states recur (and replay) between stale evictions, pressure
// evictions, a budget change and park/resume interruptions.
TEST_F(EngineMemoTest, ReplayMatchesSteppingExactly)
{
    const std::vector<std::shared_ptr<const SimProgram>> programs = {
        decode_a_, decode_a_, decode_b_, decode_lo_, decode_hi_, prefill_};
    const std::vector<std::shared_ptr<const SimProgram>> interrupters = {
        prefill_, decode_b_, decode_lo_};
    uint32_t rng = 12345;  // an LCG: the same schedule on every platform
    auto draw = [&rng](size_t n) {
        rng = rng * 1664525u + 1013904223u;
        return static_cast<size_t>(rng >> 16) % n;
    };
    std::vector<Scheduled> schedule;
    for (int i = 0; i < 400; ++i) {
        Scheduled run{programs[draw(programs.size())]};
        if (draw(12) == 0) {
            run.nested = interrupters[draw(interrupters.size())];
            run.watch_in = 1e-4 * static_cast<double>(draw(8));
        }
        run.budget = i == 200 ? 20 * kKiB : 0;
        schedule.push_back(run);
    }
    EXPECT_GT(expect_replay_exact(machine_, options(), schedule).replays, 0);
}

// The same equivalence with KV segments allocated, grown and freed
// between runs: pressure-free runs replay at whatever occupancy the
// segments leave (shifting the peak), and runs whose pressure relief
// weighs KV segments against weights are stepped.
TEST_F(EngineMemoTest, KvBearingRunsReplayExactly)
{
    const std::vector<std::shared_ptr<const SimProgram>> programs = {
        decode_a_, decode_a_, decode_b_, decode_lo_, decode_hi_, prefill_};
    uint32_t rng = 777;
    auto draw = [&rng](size_t n) {
        rng = rng * 1664525u + 1013904223u;
        return static_cast<size_t>(rng >> 16) % n;
    };
    std::vector<int64_t> live;  // segment ids in existence
    int64_t next_id = 0;
    std::vector<Scheduled> schedule;
    for (int i = 0; i < 400; ++i) {
        Scheduled run{programs[draw(programs.size())]};
        if (draw(16) == 0) {
            run.nested = decode_lo_;
            run.watch_in = 1e-4 * static_cast<double>(draw(8));
        }
        // Odd byte counts: the occupancy takes values no weight
        // footprint sums to.
        const uint64_t bytes = draw(6 * kKiB) + 1;
        switch (draw(4)) {
            case 0:
                if (live.size() < 4) {
                    const int64_t id = next_id++;
                    live.push_back(id);
                    run.kv = [id, bytes](EngineState& s) {
                        s.kv_alloc(id, bytes);
                    };
                }
                break;
            case 1:
                if (!live.empty()) {
                    const int64_t id = live[draw(live.size())];
                    run.kv = [id, bytes](EngineState& s) {
                        s.kv_grow(id, bytes / 4);
                    };
                }
                break;
            case 2:
                if (!live.empty()) {
                    const size_t k = draw(live.size());
                    const int64_t id = live[k];
                    live.erase(live.begin() + static_cast<long>(k));
                    run.kv = [id](EngineState& s) { s.kv_free(id); };
                }
                break;
            default:
                break;
        }
        schedule.push_back(run);
    }
    const ScheduleStats stats =
        expect_replay_exact(machine_, options(), schedule);
    EXPECT_GT(stats.kv_evictions, 0);  // pressure weighed KV too
    EXPECT_GT(stats.kv_replays, 0);
}

// Same entries, opposite recency: the following pressure eviction
// takes different victims, so the key must tell the two pools apart
// by rank.
TEST_F(EngineMemoTest, RecencyOrderSeparatesKeys)
{
    expect_replay_exact(machine_, options(),
                        {{decode_a_}, {decode_lo_}, {decode_hi_}, {pressure_},
                         {decode_a_}, {decode_hi_}, {decode_lo_}, {pressure_}});
}

// A replayed half-batch leaves the other half's recency where it was,
// which decides the next pressure eviction.
TEST_F(EngineMemoTest, ReplayKeepsUntouchedRecency)
{
    const int64_t replays =
        expect_replay_exact(
            machine_, options(),
            {{decode_a_}, {decode_lo_}, {decode_a_}, {decode_lo_}, {pressure_}})
            .replays;
    EXPECT_GT(replays, 0);
}

// The budget is part of the key: the same empty pool admits fewer
// entries under a smaller budget.
TEST_F(EngineMemoTest, BudgetSeparatesKeys)
{
    // Same op ids, other footprints, nothing to retain: stale-evicts
    // every decode_lo entry and admits none.
    auto flush = make_program(0, {2 * kKiB, 2 * kKiB, 2 * kKiB}, {0, 0, 0},
                              dram_, 2 * kKiB);
    Scheduled small{decode_lo_};
    small.budget = 4 * kKiB;
    expect_replay_exact(machine_, options(),
                        {{decode_lo_}, {flush}, small, {flush}});
}

// Pins held by a parked program are part of the key. A run parked
// right after its first resident hit (whose execute space equals its
// preload space, so occupancy is unchanged) leaves the pool of the
// standalone pressure run but with that entry pinned: the interrupting
// pressure run must evict another entry instead, not replay.
TEST_F(EngineMemoTest, ParkedPinsSeparateKeys)
{
    auto victim =
        make_program(0, {4 * kKiB, 4 * kKiB, 4 * kKiB}, {1, 1, 1}, dram_,
                     4 * kKiB);
    Scheduled interrupted{victim, pressure_};
    expect_replay_exact(machine_, options(),
                        {{victim}, {victim}, {pressure_}, {victim}, {victim},
                         interrupted});
}

// A run whose pressure relief fired read the exact occupancy. A
// parked victim's first preload adds 4 KiB here, so the same pressure
// run from the same weight pool must evict one more entry, not replay
// the run recorded without the victim.
TEST_F(EngineMemoTest, PressuredRunReplaysOnlyAtItsOccupancy)
{
    auto victim =
        make_program(200, {4 * kKiB, 4 * kKiB}, {1, 1}, dram_, 4 * kKiB);
    Scheduled interrupted{victim, pressure_};
    const int64_t replays =
        expect_replay_exact(machine_, options(),
                            {{decode_a_}, {pressure_}, {decode_a_},
                             {pressure_}, {decode_a_}, interrupted})
            .replays;
    // The second pressure run starts where the first did.
    EXPECT_GT(replays, 0);
}

// A run whose pressure relief weighed a KV segment is not recorded:
// the memo keys weights only. Here the segment is the oldest entry,
// so the pressure run spills it and four weights. A parked victim's
// preload later rebuilds the same occupancy from a KV-free pool, where
// stepping must evict five weights instead.
TEST_F(EngineMemoTest, PressureOverKvIsNotRecorded)
{
    auto victim =
        make_program(200, {4 * kKiB, 4 * kKiB}, {1, 1}, dram_, 4 * kKiB);
    Scheduled with_kv{decode_a_};
    with_kv.kv = [](EngineState& s) { s.kv_alloc(1, 4 * kKiB); };
    Scheduled kv_freed{decode_a_};
    kv_freed.kv = [](EngineState& s) { s.kv_free(1); };
    const ScheduleStats stats = expect_replay_exact(
        machine_, options(),
        {with_kv, {pressure_}, kv_freed, Scheduled{victim, pressure_}});
    EXPECT_EQ(stats.kv_evictions, 1);
}

// More distinct runs than the memo holds: each record past the
// capacity overwrites the oldest entry. The first program's entry goes
// first, so it steps again, and its new record overwrites the second
// program's; the entries recorded after them still replay.
TEST_F(EngineMemoTest, FullMemoOverwritesTheOldestEntry)
{
    const size_t capacity = EngineState::kMemoCapacity;
    std::vector<std::shared_ptr<const SimProgram>> programs;
    std::vector<Scheduled> schedule;
    for (size_t i = 0; i <= capacity; ++i) {
        programs.push_back(make_program(0, {4 * kKiB}, {1}, dram_, 6 * kKiB));
        schedule.emplace_back(programs.back());
    }
    for (size_t i : {size_t{0}, size_t{2}, capacity, size_t{1}}) {
        schedule.emplace_back(programs[i]);
    }
    // Zero budget: every run starts from the empty pool, so only the
    // program tells the keys apart.
    const ScheduleStats stats =
        expect_replay_exact(machine_, EngineState::Options{}, schedule);
    ASSERT_EQ(stats.replayed.size(), schedule.size());
    EXPECT_EQ(stats.replays, 2);
    EXPECT_EQ(std::vector<bool>(stats.replayed.end() - 4, stats.replayed.end()),
              (std::vector<bool>{false, true, true, false}));
}

/// Op ids of @p state's pool right after begin() of @p program, on a
/// pool holding ops 3, 5 and 9 at 4 KiB each.
std::vector<int>
resident_after_begin(const Machine& machine, const SimProgram& program)
{
    const double dram = machine.config().hbm_total_bw * 1e-5;
    auto seed = std::make_shared<SimProgram>();
    for (int id : {3, 5, 9}) {
        seed->ops.push_back(make_op(id, dram, 1e-4, 4 * kKiB, 6 * kKiB));
    }
    seed->finalize_default_order();
    EngineState::Options opts;
    opts.residency_budget = 30 * kKiB;
    EngineState state(machine, opts);
    state.begin(*seed);
    while (state.step()) {
    }
    state.finish();
    EXPECT_EQ(state.resident_op_ids(), (std::vector<int>{3, 5, 9}));
    state.begin(program);
    EXPECT_EQ(state.resident_bytes(),
              4 * kKiB * static_cast<uint64_t>(state.resident_ops()));
    return state.resident_op_ids();
}

/// A program of (op id, preload space) pairs in exec order; a 4 KiB
/// op matches the pool's entry for its id, a 3 KiB one is stale.
SimProgram
stale_probe(const Machine& machine,
            const std::vector<std::pair<int, uint64_t>>& ops)
{
    const double dram = machine.config().hbm_total_bw * 1e-5;
    SimProgram program;
    for (const auto& [id, space] : ops) {
        program.ops.push_back(make_op(id, dram, 1e-4, space, 6 * kKiB));
    }
    program.finalize_default_order();
    return program;
}

// Stale eviction decides each entry by the first exec index of its op
// id, whether the program's ids ascend (the lookup is built sorted) or
// not (it is sorted first). The expected pools are what an engine that
// always sorts the lookup leaves.
TEST(EngineStaleEvictionTest, FirstExecIndexOfAnIdDecides)
{
    Machine machine(hw::ChipConfig::tiny(16));
    const uint64_t match = 4 * kKiB;
    const uint64_t stale = 3 * kKiB;
    // Ascending with duplicates: 5 matches first, 9 is stale first.
    EXPECT_EQ(resident_after_begin(
                  machine, stale_probe(machine, {{5, match}, {5, stale},
                                                 {9, stale}, {9, match}})),
              (std::vector<int>{3, 5}));
    // Ascending, ids above and between the pool's: nothing stale.
    EXPECT_EQ(resident_after_begin(
                  machine, stale_probe(machine, {{4, stale}, {9, match},
                                                 {9, stale}, {12, stale}})),
              (std::vector<int>{3, 5, 9}));
    // 9, 5, 9: 9 matches first, 5 is stale.
    EXPECT_EQ(resident_after_begin(
                  machine, stale_probe(machine,
                                       {{9, match}, {5, stale}, {9, stale}})),
              (std::vector<int>{3, 9}));
    // 5, 9, 3, 5: 5 and 3 are stale first, 9 matches.
    EXPECT_EQ(resident_after_begin(
                  machine, stale_probe(machine, {{5, stale}, {9, match},
                                                 {3, stale}, {5, match}})),
              (std::vector<int>{9}));
}

// The watch rule is strict: a hit replays only when the run's final
// clock lies strictly before the watch, so a watcher firing exactly
// at the last event still sees every step.
TEST(EngineMemoWatchTest, ReplaysOnlyStrictlyBeforeTheWatch)
{
    Machine machine(hw::ChipConfig::tiny(16));
    auto prog = small_program(machine.config().hbm_total_bw * 1e-4);
    EngineState state(machine);  // zero budget: the pool stays empty
    EXPECT_FALSE(state.begin_memo(prog, kInf));
    while (state.step()) {
    }
    const SimResult first = state.finish();
    const double span = first.total_time;

    // The run's last event lands at now() + span.
    const double last = state.now() + span;
    EXPECT_FALSE(state.begin_memo(prog, last));
    int steps = 0;
    while (state.step()) {
        ++steps;
    }
    EXPECT_GT(steps, 0);
    EXPECT_EQ(state.now(), last);
    EXPECT_EQ(state.finish().serialize_bits(), first.serialize_bits());

    const double next = state.now() + span;
    EXPECT_TRUE(state.begin_memo(prog, std::nextafter(next, kInf)));
    EXPECT_TRUE(state.done());
    EXPECT_FALSE(state.step());
    EXPECT_EQ(state.now(), next);
    EXPECT_EQ(state.finish().serialize_bits(), first.serialize_bits());
    EXPECT_EQ(state.replays(), 1);
}

// A parked run is never recorded: its steps interleave with another
// program's, so its post-state is not a function of its key.
TEST(EngineMemoRecordTest, ParkedRunsAreNotRecorded)
{
    Machine machine(hw::ChipConfig::tiny(16));
    auto prog = small_program(machine.config().hbm_total_bw * 1e-4);
    EngineState state(machine);  // zero budget: the weights pool stays empty
    auto run = [&] {
        state.begin_memo(prog, kInf);
        while (state.step()) {
        }
        return state.finish();
    };

    // Parked once, then resumed: not recorded.
    state.begin_memo(prog, kInf);
    ASSERT_TRUE(state.step());
    EngineState::Parked parked = state.park();
    state.resume(std::move(parked));
    while (state.step()) {
    }
    state.finish();

    const SimResult recorded = run();
    EXPECT_EQ(state.replays(), 0);
    EXPECT_EQ(run().serialize_bits(), recorded.serialize_bits());
    EXPECT_EQ(state.replays(), 1);
}

// The headroom guard is exact to the byte. small_program peaks 8 KiB
// (one execute space) above its base. Recorded next to a 1000-byte
// KV segment, it replays once the segment has grown to leave exactly
// 8 KiB of usable SRAM, its peak shifted to the limit. One byte more
// and its first execute's pressure check fires and spills the
// segment, so it must step.
TEST(EngineMemoHeadroomTest, GuardIsExactToTheByte)
{
    Machine machine(hw::ChipConfig::tiny(16));
    const uint64_t limit = machine.config().usable_sram_per_core();
    const uint64_t growth = 8 * kKiB;
    auto prog = small_program(machine.config().hbm_total_bw * 1e-4);
    EngineState a(machine);  // zero budget: KV is the whole pool
    EngineState b(machine);
    auto both = [&](const std::function<void(EngineState&)>& kv,
                    int64_t replays) {
        kv(a);
        kv(b);
        const SimResult ra = drive(a, Scheduled{prog}, /*memo=*/false);
        const SimResult rb = drive(b, Scheduled{prog}, /*memo=*/true);
        EXPECT_EQ(untimed_bits(ra), rb.serialize_bits());
        expect_same_state(a, b);
        EXPECT_EQ(b.replays(), replays);
        return rb;
    };

    both([](EngineState& s) { s.kv_alloc(1, 1000); }, 0);
    const SimResult at_headroom = both(
        [&](EngineState& s) { s.kv_grow(1, limit - growth - 1000); }, 1);
    EXPECT_EQ(at_headroom.peak_sram_per_core, limit);
    EXPECT_EQ(b.kv_evictions(), 0);

    both([](EngineState& s) { s.kv_grow(1, 1); }, 1);
    EXPECT_EQ(b.kv_evictions(), 1);
    EXPECT_FALSE(b.kv_resident(1));
}

// On an empty pool relieve_pressure() returns before its check, so a
// run that overflows SRAM there counts as pressured by its peak alone:
// it replays at its own occupancy instead of being recorded again on
// every run.
TEST(EngineMemoRecordTest, OverflowOnAnEmptyPoolReplays)
{
    Machine machine(hw::ChipConfig::tiny(16));
    auto prog = make_program(0, {4 * kKiB}, {1},
                             machine.config().hbm_total_bw * 1e-4, 70 * kKiB);
    const SimResult plain = Engine(machine).run(*prog);
    ASSERT_TRUE(plain.memory_exceeded);
    EngineState state(machine);  // zero budget, no KV: the pool stays empty
    for (int i = 0; i < 3; ++i) {
        state.begin_memo(prog, kInf);
        while (state.step()) {
        }
        EXPECT_EQ(state.finish().serialize_bits(), untimed_bits(plain));
    }
    EXPECT_EQ(state.replays(), 2);
}

// The memo holds each recorded program, so a program built after the
// caller dropped its last reference to another can never take the
// dropped one's address and be mistaken for it.
TEST(EngineMemoRecordTest, DroppedProgramNeverAliasesANewOne)
{
    Machine machine(hw::ChipConfig::tiny(16));
    const double dram = machine.config().hbm_total_bw * 1e-4;
    EngineState state(machine);  // both runs start from an empty pool
    {
        auto p = small_program(dram);
        state.begin_memo(p, kInf);
        while (state.step()) {
        }
        state.finish();
    }  // the memo's reference is now P's last one

    // Same shape, so the allocator would happily reuse P's block.
    auto q = small_program(dram * 3);
    EXPECT_FALSE(state.begin_memo(q, kInf));
    while (state.step()) {
    }
    const SimResult rq = state.finish();
    EXPECT_EQ(rq.serialize_bits(), untimed_bits(Engine(machine).run(*q)));
    EXPECT_EQ(state.replays(), 0);
}

// A program the state has never recorded is validated by begin_memo()
// exactly like begin().
TEST(EngineMemoDeathTest, UnseenInvalidProgramIsRejected)
{
    Machine machine(hw::ChipConfig::tiny(16));
    auto prog = std::make_shared<SimProgram>();
    prog->ops.push_back(make_op(0, 1e6, 1e-4, 1024, 2048));
    prog->ops.push_back(make_op(1, 1e6, 1e-4, 1024, 2048));
    prog->preload_order = {0, 0};
    prog->issue_slot = {0, 0};
    EngineState state(machine);
    EXPECT_DEATH(state.begin_memo(prog, kInf), "duplicate preload entry");
}

}  // namespace
}  // namespace elk::sim
