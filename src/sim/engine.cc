#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/bits.h"
#include "util/logging.h"

namespace elk::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void
SimProgram::finalize_default_order()
{
    preload_order.clear();
    issue_slot.clear();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        preload_order.push_back(i);
        issue_slot.push_back(i);
    }
}

void
SimProgram::validate() const
{
    const int n = static_cast<int>(ops.size());
    util::check(preload_order.size() == ops.size(),
                "SimProgram: preload order size mismatch");
    util::check(issue_slot.size() == preload_order.size(),
                "SimProgram: issue slot size mismatch");
    std::vector<bool> seen(ops.size(), false);
    for (size_t r = 0; r < preload_order.size(); ++r) {
        int op = preload_order[r];
        util::check(op >= 0 && op < n,
                    "SimProgram: bad preload order entry");
        util::check(!seen[op], "SimProgram: duplicate preload entry");
        seen[op] = true;
        util::check(issue_slot[r] >= 0 && issue_slot[r] <= n,
                    "SimProgram: issue slot past program end");
        util::check(issue_slot[r] <= op,
                    "SimProgram: preload issued after own execute");
        if (r > 0) {
            util::check(issue_slot[r] >= issue_slot[r - 1],
                        "SimProgram: issue slots not monotone");
        }
    }
}

// ---------------------------------------------------------------------------
// EngineState

EngineState::EngineState(const Machine& machine)
    : EngineState(machine, Options())
{
}

EngineState::EngineState(const Machine& machine, Options opts)
    : machine_(machine), opts_(opts)
{
}

bool
EngineState::exec_active() const
{
    return f_.phase == ExecPhase::kDistribute ||
           f_.phase == ExecPhase::kExecute;
}

bool
EngineState::program_complete() const
{
    return f_.phase == ExecPhase::kDone &&
           f_.pre_r >= static_cast<int>(f_.program->preload_order.size()) &&
           !preload_active();
}

bool
EngineState::done() const
{
    return f_.program == nullptr || f_.complete;
}

void
EngineState::reset_frame(const SimProgram& program)
{
    clock_base_ += f_.t;  // previous program's span becomes history
    // Every serving iteration runs begin()/finish() on this state, so
    // the frame's heap blocks — the network's flow table and the
    // per-op vectors — are lifted out, cleared (capacity kept), and
    // put back into the otherwise default-constructed frame.
    std::optional<FluidNetwork> net = std::move(f_.net);
    std::vector<OpTiming> timing = std::move(f_.timing);
    std::vector<bool> preload_done = std::move(f_.preload_done);
    std::vector<bool> used_resident = std::move(f_.used_resident);
    f_ = Frame{};
    if (net) {
        net->reset_flows();
    }
    timing.clear();
    preload_done.clear();
    used_resident.clear();
    f_.net = std::move(net);
    f_.timing = std::move(timing);
    f_.preload_done = std::move(preload_done);
    f_.used_resident = std::move(used_resident);
    f_.program = &program;
}

void
EngineState::begin(const SimProgram& program)
{
    util::check(done(), "EngineState: begin() while a program is running");
    program.validate();
    recording_ = false;
    evict_stale(program);
    load(program);
}

bool
EngineState::begin_memo(std::shared_ptr<const SimProgram> program,
                        double watch)
{
    util::check(done(), "EngineState: begin() while a program is running");
    util::check(program != nullptr, "EngineState: begin_memo() of null");
    const SimProgram* p = program.get();
    bool known = false;
    for (const MemoEntry& m : memo_) {
        if (m.program.get() == p) {
            known = true;
            break;
        }
    }
    if (!known) {
        p->validate();  // a held program was validated when recorded
    }
    recording_ = false;
    evict_stale(*p);
    const uint64_t hash = memo_key(p);
    const MemoEntry* hit = nullptr;
    for (const MemoEntry& m : memo_) {
        if (m.hash == hash && m.program.get() == p && m.key == memo_key_ &&
            memo_applies(m)) {
            hit = &m;
            break;
        }
    }
    // now() at the run's last event is now() + t_final (the sum the
    // loaded run's clock_base_ + t_final computes), and the clock only
    // grows step by step: if that is before the watch, no step of the
    // skipped run could have tripped the caller's watcher. A replay
    // needs no per-op state, so it skips load().
    if (hit != nullptr && now() + hit->t_final < watch) {
        reset_frame(*p);
        f_.owner = std::move(program);
        replay(*hit);
        return true;
    }
    load(*p);
    f_.owner = std::move(program);
    if (hit == nullptr) {
        recording_ = true;
        rec_pressured_ = false;
        rec_hash_ = hash;
        rec_base_ = occupancy_;
        rec_pre_ = resident_;
        rec_seq_ = resident_seq_;
        rec_hits_ = resident_hits_;
        rec_evictions_ = resident_evictions_;
        rec_evicted_.clear();
    }
    return false;
}

bool
EngineState::drop_if_stale(size_t idx, const SimOp& op)
{
    const ResidentEntry& entry = resident_[idx].entry;
    if (entry.pin_count != 0 || entry_matches(entry, op)) {
        return false;
    }
    occupancy_ -= static_cast<double>(entry.space);
    resident_bytes_ -= entry.space;
    return true;
}

void
EngineState::evict_stale(const SimProgram& program)
{
    check_pool_invariants();
    // Evict resident entries this program would stale-hit: the op id
    // is present but was compiled to a different preload footprint /
    // HBM volume (e.g. a different batch bucket's plan). Entries for
    // op ids the program does not mention stay — they may belong to
    // another program class sharing the pool (prefill vs decode use
    // disjoint id spaces) — and pinned entries always stay: they are
    // in use by a parked program. The in-order compaction preserves
    // the pool's sort.
    if (resident_.empty()) {
        return;
    }
    // Each entry is looked up among the program's (op_id, exec index)
    // pairs, sorted in reused scratch, so the lowest exec index of a
    // duplicated id decides. A lowered program's ids already ascend,
    // which leaves the pairs sorted as built.
    const std::vector<SimOp>& ops = program.ops;
    begin_scratch_.clear();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        begin_scratch_.emplace_back(ops[i].op_id, i);
    }
    if (!std::is_sorted(begin_scratch_.begin(), begin_scratch_.end())) {
        std::sort(begin_scratch_.begin(), begin_scratch_.end());
    }
    size_t out = 0;
    for (size_t i = 0; i < resident_.size(); ++i) {
        auto hit = std::lower_bound(
            begin_scratch_.begin(), begin_scratch_.end(),
            std::pair<int, int>(resident_[i].op_id, -1));
        if (hit != begin_scratch_.end() && hit->first == resident_[i].op_id &&
            drop_if_stale(i, ops[hit->second])) {
            continue;
        }
        if (out != i) {
            resident_[out] = resident_[i];
        }
        ++out;
    }
    resident_.resize(out);
}

void
EngineState::load(const SimProgram& program)
{
    const int n = static_cast<int>(program.ops.size());
    reset_frame(program);
    if (!f_.net) {
        f_.net.emplace(machine_.capacities());
    }
    f_.timing.assign(n, {});
    // Each op adds at most one flow per kind (HBM preload,
    // distribution, execute fetch, execute stream); reserving that
    // bound keeps the step loop from regrowing the flow table.
    int max_flows = 0;
    for (int i = 0; i < n; ++i) {
        const SimOp& op = program.ops[i];
        f_.timing[i].op_id = op.op_id;
        max_flows += (op.dram_bytes > 0.0) + (op.distribute_bytes > 0) +
                     (op.fetch_bytes > 0) + (op.exec_stream_dram > 0);
    }
    f_.net->reserve_flows(max_flows);
    f_.phase = n > 0 ? ExecPhase::kWaitPreload : ExecPhase::kDone;
    f_.preload_done.assign(n, false);
    f_.used_resident.assign(n, false);
    f_.peak = occupancy_;
    if (program_complete()) {
        f_.complete = true;
    }
}

EngineState::Parked
EngineState::park()
{
    util::check(f_.program != nullptr,
                "EngineState: park() without a program");
    util::check(!f_.complete,
                "EngineState: park() after completion; finish() instead");
    // Fold the parked local clock into the base so the idle state sits
    // at the same global now (its fresh frame's local clock is zero).
    clock_base_ += f_.t;
    recording_ = false;  // a parked run's steps are interleaved
    auto frame = std::make_unique<Frame>(std::move(f_));
    f_ = Frame{};
    return Parked(std::move(frame));
}

void
EngineState::resume(Parked&& parked)
{
    util::check(f_.program == nullptr,
                "EngineState: resume() while a program is loaded");
    util::check(parked.f_ != nullptr && parked.f_->program != nullptr,
                "EngineState: resume() of an empty parked frame");
    // Keep the global clock: the victim's local clock continues from
    // where park() froze it.
    clock_base_ = (clock_base_ + f_.t) - parked.f_->t;
    f_ = std::move(*parked.f_);
    parked.f_.reset();
}

double
EngineState::standalone_preload(const SimOp& op) const
{
    const hw::ChipConfig& cfg = machine_.config();
    double dram = op.dram_bytes / cfg.hbm_total_bw;
    double fabric = op.delivery_bytes / machine_.delivery_capacity();
    return cfg.hbm_access_latency_s + std::max(dram, fabric);
}

double
EngineState::standalone_exec(const SimOp& op) const
{
    return std::max({op.exec_local_time,
                     op.fetch_bytes / machine_.peer_capacity(),
                     op.exec_stream_dram / machine_.config().hbm_total_bw});
}

double
EngineState::standalone_distribute(const SimOp& op) const
{
    return std::max(op.distribute_local_time,
                    op.distribute_bytes / machine_.peer_capacity());
}

bool
EngineState::entry_matches(const ResidentEntry& entry, const SimOp& op)
{
    return entry.space == op.preload_space &&
           entry.dram_bytes == op.dram_bytes;
}

int
EngineState::kv_find(int64_t id) const
{
    auto it = std::lower_bound(
        kv_.begin(), kv_.end(), id,
        [](const KvSlot& slot, int64_t key) { return slot.id < key; });
    if (it == kv_.end() || it->id != id) {
        return -1;
    }
    return static_cast<int>(it - kv_.begin());
}

template <typename Slot, typename Evictable>
int
EngineState::scan_victim(const std::vector<Slot>& slots,
                         Evictable&& evictable) const
{
    int victim = -1;
    for (size_t i = 0; i < slots.size(); ++i) {
        if (evictable(slots[i]) &&
            (victim < 0 || slots[i].seq() < slots[victim].seq())) {
            victim = static_cast<int>(i);
        }
    }
    return victim;
}

int
EngineState::kv_pick_victim(int64_t excluded_id) const
{
    return scan_victim(kv_, [excluded_id](const KvSlot& slot) {
        return slot.seg.resident && slot.seg.pin_count == 0 &&
               slot.id != excluded_id;
    });
}

void
EngineState::kv_spill(int idx)
{
    KvSegment& seg = kv_[idx].seg;
    seg.resident = false;
    kv_resident_bytes_ -= seg.bytes;
    occupancy_ -= static_cast<double>(seg.bytes);
    if (seg.share_count > 0) {
        kv_shared_bytes_ -= seg.bytes;
    }
    ++kv_evictions_;
}

bool
EngineState::kv_make_room(uint64_t need, int64_t excluded_id)
{
    if (opts_.kv_budget == 0) {
        return true;
    }
    if (need > opts_.kv_budget) {
        return false;
    }
    while (kv_resident_bytes_ + need > opts_.kv_budget) {
        int victim = kv_pick_victim(excluded_id);
        if (victim < 0) {
            return false;  // only pinned (or excluded) segments left
        }
        kv_spill(victim);
    }
    return true;
}

bool
EngineState::kv_alloc(int64_t id, uint64_t per_core_bytes)
{
    auto pos = std::lower_bound(
        kv_.begin(), kv_.end(), id,
        [](const KvSlot& slot, int64_t key) { return slot.id < key; });
    util::check(pos == kv_.end() || pos->id != id,
                "EngineState: kv_alloc() of an existing segment");
    recording_ = false;  // see the KV section of engine.h
    KvSlot slot;
    slot.id = id;
    slot.seg.bytes = per_core_bytes;
    slot.seg.seq = resident_seq_++;
    // Insertion keeps the sort; kv_make_room only marks segments
    // spilled (no erase), so the index stays valid across it.
    const int idx = static_cast<int>(pos - kv_.begin());
    kv_.insert(pos, slot);
    if (kv_make_room(per_core_bytes, id)) {
        kv_[idx].seg.resident = true;
        kv_resident_bytes_ += per_core_bytes;
        occupancy_ += static_cast<double>(per_core_bytes);
        kv_bytes_peak_ = std::max(kv_bytes_peak_, kv_resident_bytes_);
    }
    // Pressure relief may spill the newcomer right back out (it is
    // unpinned and freshest); report what actually stuck.
    relieve_pressure();
    return kv_[idx].seg.resident;
}

bool
EngineState::kv_fetch(int64_t id)
{
    recording_ = false;
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_fetch() of an unowned segment");
    KvSegment& seg = kv_[idx].seg;
    if (seg.resident) {
        return true;
    }
    seg.seq = resident_seq_++;
    if (!kv_make_room(seg.bytes, id)) {
        return false;
    }
    seg.resident = true;
    kv_resident_bytes_ += seg.bytes;
    occupancy_ += static_cast<double>(seg.bytes);
    kv_bytes_peak_ = std::max(kv_bytes_peak_, kv_resident_bytes_);
    if (seg.share_count > 0) {
        kv_shared_bytes_ += seg.bytes;
        kv_shared_peak_ = std::max(kv_shared_peak_, kv_shared_bytes_);
    }
    relieve_pressure();
    return seg.resident;
}

void
EngineState::kv_grow(int64_t id, uint64_t per_core_bytes)
{
    recording_ = false;
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_grow() of an unowned segment");
    KvSegment& seg = kv_[idx].seg;
    // Copy-on-extend: bytes other sharers read are immutable. The
    // caller forks a private tail segment and grows that instead.
    util::check(seg.share_count == 0,
                "EngineState: kv_grow() of a shared prefix "
                "(copy-on-extend: fork a private tail segment)");
    seg.bytes += per_core_bytes;
    if (!seg.resident) {
        return;  // grows in HBM for free
    }
    kv_resident_bytes_ += per_core_bytes;
    occupancy_ += static_cast<double>(per_core_bytes);
    if (opts_.kv_budget != 0 && kv_resident_bytes_ > opts_.kv_budget &&
        !kv_make_room(0, id)) {
        // Nothing else can move: spill the growing segment itself —
        // unless a pin (a parked consumer) forbids it, in which case
        // the overshoot stands until the pin drops.
        if (seg.pin_count == 0) {
            kv_spill(idx);
        }
    }
    if (seg.resident) {
        kv_bytes_peak_ = std::max(kv_bytes_peak_, kv_resident_bytes_);
    }
    relieve_pressure();
}

void
EngineState::kv_pin(int64_t id)
{
    recording_ = false;
    const int idx = kv_find(id);
    util::check(idx >= 0 && kv_[idx].seg.resident,
                "EngineState: kv_pin() needs a resident segment");
    ++kv_[idx].seg.pin_count;
    kv_[idx].seg.seq = resident_seq_++;
}

void
EngineState::kv_unpin(int64_t id)
{
    const int idx = kv_find(id);
    util::check(idx >= 0 && kv_[idx].seg.pin_count > 0,
                "EngineState: kv_unpin() without a pin");
    --kv_[idx].seg.pin_count;
}

void
EngineState::kv_free(int64_t id)
{
    recording_ = false;
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_free() of an unowned segment");
    util::check(kv_[idx].seg.pin_count == 0,
                "EngineState: kv_free() of a pinned segment");
    util::check(kv_[idx].seg.share_count == 0,
                "EngineState: kv_free() of a shared segment");
    if (kv_[idx].seg.resident) {
        kv_resident_bytes_ -= kv_[idx].seg.bytes;
        occupancy_ -= static_cast<double>(kv_[idx].seg.bytes);
    }
    kv_.erase(kv_.begin() + idx);
}

void
EngineState::kv_share(int64_t id)
{
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_share() of an unowned segment");
    KvSegment& seg = kv_[idx].seg;
    ++seg.share_count;
    if (seg.resident && seg.share_count == 1) {
        kv_shared_bytes_ += seg.bytes;
        kv_shared_peak_ = std::max(kv_shared_peak_, kv_shared_bytes_);
    }
}

void
EngineState::kv_release(int64_t id)
{
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_release() of an unowned segment");
    KvSegment& seg = kv_[idx].seg;
    util::check(seg.share_count > 0,
                "EngineState: kv_release() of an unshared segment");
    --seg.share_count;
    if (seg.resident && seg.share_count == 0) {
        kv_shared_bytes_ -= seg.bytes;
    }
}

int
EngineState::kv_share_count(int64_t id) const
{
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_share_count() of an unowned segment");
    return kv_[idx].seg.share_count;
}

bool
EngineState::kv_resident(int64_t id) const
{
    const int idx = kv_find(id);
    return idx >= 0 && kv_[idx].seg.resident;
}

uint64_t
EngineState::kv_segment_bytes(int64_t id) const
{
    const int idx = kv_find(id);
    util::check(idx >= 0,
                "EngineState: kv_segment_bytes() of an unowned segment");
    return kv_[idx].seg.bytes;
}

bool
EngineState::kv_would_fit(uint64_t per_core_bytes) const
{
    // O(1) by the running counter; the debug audit proves the counter
    // equal to a full pool rescan on every probe.
    check_pool_invariants();
    return opts_.kv_budget == 0 ||
           kv_resident_bytes_ + per_core_bytes <= opts_.kv_budget;
}

void
EngineState::check_pool_invariants() const
{
#ifndef NDEBUG
    uint64_t weight_bytes = 0;
    for (size_t i = 0; i < resident_.size(); ++i) {
        weight_bytes += resident_[i].entry.space;
        util::check(i == 0 ||
                        resident_[i - 1].op_id < resident_[i].op_id,
                    "EngineState: weight pool out of order");
    }
    util::check(weight_bytes == resident_bytes_,
                "EngineState: resident_bytes_ drifted from the pool");
    uint64_t kv_bytes = 0;
    uint64_t shared_bytes = 0;
    for (size_t i = 0; i < kv_.size(); ++i) {
        if (kv_[i].seg.resident) {
            kv_bytes += kv_[i].seg.bytes;
            if (kv_[i].seg.share_count > 0) {
                shared_bytes += kv_[i].seg.bytes;
            }
        }
        util::check(i == 0 || kv_[i - 1].id < kv_[i].id,
                    "EngineState: KV pool out of order");
    }
    util::check(kv_bytes == kv_resident_bytes_,
                "EngineState: kv_resident_bytes_ drifted from the pool");
    util::check(shared_bytes == kv_shared_bytes_,
                "EngineState: kv_shared_bytes_ drifted from the pool");
    // The memo shifts occupancy by differences, which is exact only
    // while it is an integer byte sum below 2^53.
    util::check(occupancy_ == std::floor(occupancy_) &&
                    std::fabs(occupancy_) < 9007199254740992.0,
                "EngineState: occupancy_ left the exact integer range");
#endif
}

int
EngineState::resident_find(int op_id) const
{
    auto it = std::lower_bound(
        resident_.begin(), resident_.end(), op_id,
        [](const ResidentSlot& slot, int key) {
            return slot.op_id < key;
        });
    if (it == resident_.end() || it->op_id != op_id) {
        return -1;
    }
    return static_cast<int>(it - resident_.begin());
}

int
EngineState::pick_victim() const
{
    return scan_victim(resident_, [](const ResidentSlot& slot) {
        return slot.entry.pin_count == 0;
    });
}

void
EngineState::evict(int idx)
{
    if (recording_) {
        rec_evicted_.push_back(resident_[idx].op_id);
    }
    occupancy_ -= static_cast<double>(resident_[idx].entry.space);
    resident_bytes_ -= resident_[idx].entry.space;
    resident_.erase(resident_.begin() + idx);
    ++resident_evictions_;
}

void
EngineState::relieve_pressure()
{
    if (resident_.empty() && kv_.empty()) {
        return;
    }
    const double limit =
        static_cast<double>(machine_.config().usable_sram_per_core());
    if (recording_ && occupancy_ > limit) {
        // From here on the run reads every victim's seq and the exact
        // occupancy; a memo entry cannot key the KV pool.
        rec_pressured_ = true;
        if (!kv_.empty()) {
            recording_ = false;
        }
    }
    while (occupancy_ > limit) {
        // Weights and KV segments compete: the oldest across both
        // classes goes.
        const int w = pick_victim();
        const int k = kv_pick_victim();
        if (w < 0 && k < 0) {
            break;  // everything left is pinned by running programs
        }
        if (w < 0 || (k >= 0 && kv_[k].seq() < resident_[w].seq())) {
            kv_spill(k);
        } else {
            evict(w);
        }
    }
}

void
EngineState::retire_op(int i)
{
    const SimOp& op = f_.program->ops[i];
    occupancy_ -= static_cast<double>(op.exec_space);
    if (f_.used_resident[i]) {
        // This program's preload consumed the entry: one consumer
        // done, weights stay in place, refreshed for recency-based
        // eviction. The entry is pinned, so it cannot have vanished.
        const int idx = resident_find(op.op_id);
        util::check(idx >= 0,
                    "EngineState: consumed resident entry vanished");
        ResidentEntry& entry = resident_[idx].entry;
        entry.pin_count = std::max(0, entry.pin_count - 1);
        entry.seq = resident_seq_++;
        occupancy_ += static_cast<double>(op.preload_space);
        return;
    }
    if (resident_find(op.op_id) >= 0) {
        // An entry under this id appeared independently (admitted by
        // an interleaved program while we were parked, or a stale one
        // belonging to a parked program). This op preloaded its own
        // copy, which is simply dropped: re-crediting preload_space
        // here would double-count the entry's bytes.
        return;
    }
    if (opts_.residency_budget == 0 || op.preload_space == 0 ||
        op.dram_bytes <= 0.0) {
        return;
    }
    if (resident_bytes_ + op.preload_space <= opts_.residency_budget) {
        ResidentSlot slot;
        slot.op_id = op.op_id;
        slot.entry.space = op.preload_space;
        slot.entry.dram_bytes = op.dram_bytes;
        slot.entry.seq = resident_seq_++;
        resident_.insert(
            std::lower_bound(resident_.begin(), resident_.end(),
                             op.op_id,
                             [](const ResidentSlot& s, int key) {
                                 return s.op_id < key;
                             }),
            slot);
        resident_bytes_ += op.preload_space;
        occupancy_ += static_cast<double>(op.preload_space);
    }
}

uint64_t
EngineState::memo_key(const SimProgram* program)
{
    // Everything a pressure-free run's arithmetic reads from outside
    // its program: the budgets and each weight entry — its recency as
    // a rank among the entries (new seqs always exceed old ones, so
    // only their order is ever compared). The occupancy is not part
    // of the key: memo_applies() guards it, and KV segments enter a
    // run only through it.
    constexpr size_t kHead = 2;   // the budgets
    constexpr size_t kWords = 5;  // per entry; the rank is the last
    memo_key_.assign({opts_.residency_budget, opts_.kv_budget});
    rank_scratch_.clear();
    for (const ResidentSlot& slot : resident_) {
        uint64_t dram_bits;
        std::memcpy(&dram_bits, &slot.entry.dram_bytes, sizeof(dram_bits));
        rank_scratch_.emplace_back(slot.entry.seq,
                                   static_cast<int>(rank_scratch_.size()));
        memo_key_.insert(
            memo_key_.end(),
            {static_cast<uint64_t>(slot.op_id), slot.entry.space, dram_bits,
             static_cast<uint64_t>(slot.entry.pin_count), 0});
    }
    // An entry's rank is the number of entries with a lower seq: its
    // position in seq order, shared by equal seqs.
    std::sort(rank_scratch_.begin(), rank_scratch_.end());
    uint64_t rank = 0;
    for (size_t r = 0; r < rank_scratch_.size(); ++r) {
        if (r > 0 && rank_scratch_[r].first != rank_scratch_[r - 1].first) {
            rank = r;
        }
        memo_key_[kHead + kWords * rank_scratch_[r].second + kWords - 1] =
            rank;
    }
    util::Fnv1a h;
    h.mix_value(program);
    h.mix(memo_key_.data(), memo_key_.size() * sizeof(uint64_t));
    return h.value();
}

bool
EngineState::memo_applies(const MemoEntry& m) const
{
    if (m.pressured) {
        return kv_.empty() &&
               std::memcmp(&occupancy_, &m.base, sizeof(double)) == 0;
    }
    // Shifted by occupancy_ - base, every pressure check of the run
    // sees at most this: the exact complement of relieve_pressure()'s
    // test, so no check fires and the KV pool is never read.
    const double limit =
        static_cast<double>(machine_.config().usable_sram_per_core());
    return occupancy_ + (m.peak - m.base) <= limit;
}

void
EngineState::replay(const MemoEntry& m)
{
    // The pool is the pre-state the entry was recorded from (same
    // key), so its entries line up with MemoSlot::pre indices.
    replay_scratch_.clear();
    for (const MemoSlot& ms : m.post) {
        ResidentSlot slot{ms.op_id, ms.entry};
        slot.entry.seq = ms.pre >= 0 ? resident_[ms.pre].entry.seq
                                     : slot.entry.seq + resident_seq_;
        replay_scratch_.push_back(slot);
    }
    resident_.swap(replay_scratch_);
    // Occupancy is an integer byte sum below 2^53, so stepping from
    // another base moves every value by exactly the difference.
    const double shift = occupancy_ - m.base;
    resident_bytes_ = m.resident_bytes;
    occupancy_ = m.occupancy + shift;
    resident_seq_ += m.seq_delta;
    resident_hits_ += m.hits_delta;
    resident_evictions_ += m.evictions_delta;
    f_.result = m.result;
    f_.result.peak_sram_per_core = static_cast<uint64_t>(m.peak + shift);
    f_.t = m.t_final;
    f_.t_complete = m.t_final;
    f_.complete = true;
    f_.replayed = true;
    ++replays_;
    check_pool_invariants();
}

void
EngineState::record(const SimResult& result)
{
    recording_ = false;
    MemoEntry m;
    m.program = f_.owner;
    m.hash = rec_hash_;
    m.key = memo_key_;
    m.result = result;
    m.t_final = f_.t_complete;
    m.post.reserve(resident_.size());
    for (const ResidentSlot& slot : resident_) {
        MemoSlot ms;
        ms.op_id = slot.op_id;
        ms.entry = slot.entry;
        auto pre = std::lower_bound(
            rec_pre_.begin(), rec_pre_.end(), slot.op_id,
            [](const ResidentSlot& s, int key) { return s.op_id < key; });
        const bool survived =
            pre != rec_pre_.end() && pre->op_id == slot.op_id &&
            std::find(rec_evicted_.begin(), rec_evicted_.end(),
                      slot.op_id) == rec_evicted_.end();
        if (survived && slot.entry.seq == pre->entry.seq) {
            ms.pre = static_cast<int>(pre - rec_pre_.begin());
        } else {
            ms.entry.seq -= rec_seq_;
        }
        m.post.push_back(ms);
    }
    m.resident_bytes = resident_bytes_;
    m.base = rec_base_;
    m.peak = f_.peak;
    m.occupancy = occupancy_;
    // A peak above the limit is pressure even when no check saw it:
    // relieve_pressure() returns early on an empty pool.
    const double limit =
        static_cast<double>(machine_.config().usable_sram_per_core());
    m.pressured = rec_pressured_ || f_.peak > limit;
    m.seq_delta = resident_seq_ - rec_seq_;
    m.hits_delta = resident_hits_ - rec_hits_;
    m.evictions_delta = resident_evictions_ - rec_evictions_;
    if (memo_.size() < kMemoCapacity) {
        memo_.push_back(std::move(m));
    } else {
        memo_[memo_next_] = std::move(m);
        memo_next_ = (memo_next_ + 1) % kMemoCapacity;
    }
}

std::vector<int>
EngineState::resident_op_ids() const
{
    std::vector<int> ids;
    ids.reserve(resident_.size());
    for (const ResidentSlot& slot : resident_) {
        ids.push_back(slot.op_id);
    }
    return ids;
}

void
EngineState::advance_transitions()
{
    const SimProgram& program = *f_.program;
    const hw::ChipConfig& cfg = machine_.config();
    const int n = static_cast<int>(program.ops.size());
    const int num_preloads = static_cast<int>(program.preload_order.size());

    bool moved = true;
    while (moved) {
        moved = false;

        // Issue the next preload when its slot's predecessors are done
        // and the previous preload finished.
        if (!preload_active() && f_.pre_r < num_preloads) {
            int op_idx = program.preload_order[f_.pre_r];
            int slot = program.issue_slot[f_.pre_r];
            if (f_.completed_execs >= slot) {
                const SimOp& op = program.ops[op_idx];
                f_.timing[op_idx].pre_start = f_.t;
                const int res = resident_find(op.op_id);
                if (res >= 0 &&
                    entry_matches(resident_[res].entry, op)) {
                    // Weights already in SRAM from an earlier program:
                    // the preload completes instantly with no HBM
                    // traffic. Pin the entry until the execute retires
                    // so pressure eviction cannot take it first.
                    ++resident_[res].entry.pin_count;
                    ++resident_hits_;
                    f_.timing[op_idx].pre_end = f_.t;
                    f_.preload_done[op_idx] = true;
                    f_.used_resident[op_idx] = true;
                    ++f_.pre_r;
                } else if (op.dram_bytes <= 0.0) {
                    f_.timing[op_idx].pre_end = f_.t;
                    f_.preload_done[op_idx] = true;
                    occupancy_ += static_cast<double>(op.preload_space);
                    ++f_.pre_r;
                } else {
                    f_.pre_op = op_idx;
                    f_.pre_latency_left = cfg.hbm_access_latency_s;
                    occupancy_ += static_cast<double>(op.preload_space);
                    ++f_.pre_r;
                }
                relieve_pressure();
                f_.peak = std::max(f_.peak, occupancy_);
                moved = true;
                continue;
            }
        }

        // Preload latency elapsed: start the HBM flow.
        if (preload_active() && f_.pre_flow < 0 &&
            f_.pre_latency_left <= 0.0) {
            const SimOp& op = program.ops[f_.pre_op];
            f_.pre_flow = f_.net->add_flow(
                op.dram_bytes,
                machine_.preload_weights(op.dram_bytes, op.delivery_bytes),
                FlowTag::kHbmPreload);
            moved = true;
            continue;
        }

        // Preload flow completed.
        if (preload_active() && f_.pre_flow >= 0 &&
            !f_.net->flow_active(f_.pre_flow)) {
            f_.timing[f_.pre_op].pre_end = f_.t;
            f_.result.interconnect_stall += std::max(
                0.0, (f_.t - f_.timing[f_.pre_op].pre_start) -
                         standalone_preload(program.ops[f_.pre_op]));
            f_.preload_done[f_.pre_op] = true;
            f_.pre_op = -1;
            f_.pre_flow = -1;
            moved = true;
            continue;
        }

        // Execute side transitions.
        if (f_.phase == ExecPhase::kWaitPreload && f_.exec_i < n &&
            f_.preload_done[f_.exec_i]) {
            const SimOp& op = program.ops[f_.exec_i];
            f_.timing[f_.exec_i].exec_start = f_.t;
            occupancy_ += static_cast<double>(op.exec_space) -
                          static_cast<double>(op.preload_space);
            relieve_pressure();
            f_.peak = std::max(f_.peak, occupancy_);
            f_.phase = ExecPhase::kDistribute;
            f_.phase_start = f_.t;
            f_.phase_local_left = op.distribute_local_time;
            f_.phase_flow =
                op.distribute_bytes > 0
                    ? f_.net->add_flow(op.distribute_bytes,
                                       machine_.peer_weights(),
                                       FlowTag::kDistribute)
                    : -1;
            moved = true;
            continue;
        }
        if (f_.phase == ExecPhase::kDistribute &&
            f_.phase_local_left <= 0.0 &&
            (f_.phase_flow < 0 || !f_.net->flow_active(f_.phase_flow))) {
            const SimOp& op = program.ops[f_.exec_i];
            f_.result.interconnect_stall += std::max(
                0.0, (f_.t - f_.phase_start) - standalone_distribute(op));
            f_.phase = ExecPhase::kExecute;
            f_.phase_start = f_.t;
            f_.phase_local_left = op.exec_local_time;
            f_.phase_flow = op.fetch_bytes > 0
                                ? f_.net->add_flow(op.fetch_bytes,
                                                   machine_.peer_weights(),
                                                   FlowTag::kExecFetch)
                                : -1;
            // Chunked streamed operands keep drawing their HBM bytes
            // while executing, contending with preloads.
            f_.stream_flow =
                op.exec_stream_dram > 0
                    ? f_.net->add_flow(op.exec_stream_dram,
                                       machine_.preload_weights(
                                           op.exec_stream_dram,
                                           op.exec_stream_dram),
                                       FlowTag::kHbmPreload)
                    : -1;
            moved = true;
            continue;
        }
        if (f_.phase == ExecPhase::kExecute && f_.phase_local_left <= 0.0 &&
            (f_.phase_flow < 0 || !f_.net->flow_active(f_.phase_flow)) &&
            (f_.stream_flow < 0 || !f_.net->flow_active(f_.stream_flow))) {
            const SimOp& op = program.ops[f_.exec_i];
            f_.timing[f_.exec_i].exec_end = f_.t;
            f_.result.interconnect_stall +=
                std::max(0.0, (f_.t - f_.phase_start) - standalone_exec(op));
            retire_op(f_.exec_i);
            ++f_.completed_execs;
            ++f_.exec_i;
            f_.phase_flow = -1;
            f_.stream_flow = -1;
            if (f_.exec_i >= n) {
                f_.phase = ExecPhase::kDone;
            } else {
                f_.phase = ExecPhase::kWaitPreload;
            }
            moved = true;
            continue;
        }
    }
}

double
EngineState::event_horizon() const
{
    double dt = f_.net->time_to_next_completion();
    if (preload_active() && f_.pre_flow < 0 && f_.pre_latency_left > 0) {
        dt = std::min(dt, f_.pre_latency_left);
    }
    if (exec_active() && f_.phase_local_left > 0) {
        dt = std::min(dt, f_.phase_local_left);
    }
    return dt;
}

void
EngineState::advance_time(double dt)
{
    if (dt > 0) {
        const int pre_fab = machine_.fabric_resource_for_preload();
        const int peer_fab = machine_.fabric_resource_for_peer();
        double hbm_cap = f_.net->capacity(Resources::kHbmDram);
        f_.hbm_busy +=
            dt * f_.net->resource_usage(Resources::kHbmDram) / hbm_cap;
        f_.fabric_preload +=
            dt * f_.net->resource_usage(pre_fab, FlowTag::kHbmPreload);
        f_.fabric_peer +=
            dt * (f_.net->resource_usage(peer_fab, FlowTag::kDistribute) +
                  f_.net->resource_usage(peer_fab, FlowTag::kExecFetch));
        bool e = exec_active();
        bool p = preload_active();
        if (e && p) {
            f_.result.overlapped += dt;
        } else if (e) {
            f_.result.execute_only += dt;
        } else {
            f_.result.preload_only += dt;
        }
    }

    f_.net->advance(dt);
    if (preload_active() && f_.pre_flow < 0) {
        f_.pre_latency_left -= dt;
    }
    if (exec_active() && f_.phase_local_left > 0) {
        f_.phase_local_left -= dt;
    }
    f_.t += dt;
}

bool
EngineState::step_until(double cap)
{
    if (done()) {
        return false;
    }
    advance_transitions();
    if (program_complete()) {
        f_.complete = true;
        f_.t_complete = f_.t;
        return false;
    }
    const int n = static_cast<int>(f_.program->ops.size());
    util::check(++f_.guard < 64 * (n + 1) + 1024,
                "Engine: no forward progress");
    double dt = event_horizon();
    util::check(std::isfinite(dt) && dt >= 0,
                "Engine: stalled with no pending event");
    dt = std::max(dt, 0.0);
    if (f_.t + dt > cap) {
        // Clipped at the caller's horizon: this is not an engine
        // event, so it does not count against the progress guard.
        dt = std::max(cap - f_.t, 0.0);
        --f_.guard;
        recording_ = false;  // a split event is not a step()-driven run
    }
    advance_time(dt);
    return true;
}

bool
EngineState::step()
{
    return step_until(kInf);
}

void
EngineState::run_to(double t_target)
{
    const double cap = t_target - clock_base_;  // local horizon
    while (!done() && f_.t < cap) {
        if (!step_until(cap)) {
            break;
        }
    }
    if (done() && f_.t < cap) {
        f_.t = cap;  // idle until the horizon
    }
}

SimResult
EngineState::finish()
{
    util::check(f_.program != nullptr,
                "EngineState: finish() without a program");
    util::check(f_.complete, "EngineState: finish() before completion");
    if (!f_.replayed) {
        const double total = f_.t_complete;
        f_.result.total_time = total;
        double total_flops = 0.0;
        for (const auto& op : f_.program->ops) {
            total_flops += op.flops;
        }
        if (total > 0) {
            f_.result.hbm_util = f_.hbm_busy / total;
            f_.result.noc_util_preload = f_.fabric_preload / total;
            f_.result.noc_util_peer = f_.fabric_peer / total;
            f_.result.noc_util =
                f_.result.noc_util_preload + f_.result.noc_util_peer;
            f_.result.achieved_tflops = total_flops / total / 1e12;
        }
        f_.result.peak_sram_per_core = static_cast<uint64_t>(f_.peak);
        f_.result.memory_exceeded =
            f_.result.peak_sram_per_core >
            machine_.config().usable_sram_per_core();
    }
    if (recording_) {
        record(f_.result);
    }
    SimResult out = std::move(f_.result);
    if (f_.owner == nullptr) {  // loaded by begin(), not begin_memo()
        out.timing = std::move(f_.timing);
    }
    f_.result = SimResult{};
    f_.program = nullptr;
    f_.owner.reset();
    // The network object survives for the next begin() (reset_frame
    // clears its flows but keeps the table's allocation).
    return out;
}

// ---------------------------------------------------------------------------
// Engine

SimResult
Engine::run(const SimProgram& program) const
{
    EngineState state(machine_);
    state.begin(program);
    while (state.step()) {
    }
    return state.finish();
}

}  // namespace elk::sim
