/**
 * @file
 * Event-driven execution engine for ICCA chip programs.
 *
 * The engine interprets a SimProgram — the device-level program of
 * paper §4.5: a sequence of preload_async and execute calls with
 * one-way synchronization:
 *
 *  1. an execute blocks all preload_asyncs and executes that appear
 *     after it in program order until it finishes;
 *  2. preload_asyncs run sequentially in issue order;
 *  3. preload_async(i) blocks only execute(i) (done-tag wait).
 *
 * Every execute runs as a data-distribution phase (peer flow + local
 * SRAM time) followed by an execution phase (fixed local compute time
 * plus an on-demand inter-core fetch flow). Preloads are HBM flows.
 * All flows share the machine's resources through the FluidNetwork,
 * so HBM delivery and inter-core exchange contend for the fabric
 * exactly as in paper Fig. 2.
 *
 * Programs run on a resumable EngineState: the serving runtime
 * advances it event by event (step) or up to a wall-clock horizon
 * (run_to), and back-to-back programs on one state keep operator
 * weights resident in SRAM so steady-state decode steps skip the HBM
 * preload. A running program can also be parked at any step()
 * boundary — its complete interpreter frame is lifted off the state so
 * another program (a high-priority request's iteration) can run on the
 * same state, and resumed later exactly where it stopped; the serving
 * runtime's preemption is built on this. Engine::run() is the one-shot
 * convenience wrapper.
 */
#ifndef ELK_SIM_ENGINE_H
#define ELK_SIM_ENGINE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.h"
#include "sim/trace.h"

namespace elk::sim {

/// One operator's simulation parameters (already planned/compiled).
struct SimOp {
    int op_id = -1;
    std::string name;

    // --- preload ---
    double dram_bytes = 0.0;      ///< unique bytes read from HBM.
    double delivery_bytes = 0.0;  ///< fabric bytes delivered to cores.
    uint64_t preload_space = 0;   ///< per-core bytes while resident.

    // --- distribution (preload-state -> execute-state) ---
    double distribute_bytes = 0.0;      ///< aggregate peer bytes.
    double distribute_local_time = 0.0; ///< SRAM copy-in time.

    // --- execution ---
    double exec_local_time = 0.0;  ///< compute + SRAM-contention time.
    double fetch_bytes = 0.0;      ///< aggregate on-demand peer bytes
                                   ///< (includes reductions).
    /// Aggregate HBM bytes streamed from DRAM during execution
    /// (chunked KV consumption); contends with ongoing preloads.
    double exec_stream_dram = 0.0;
    uint64_t exec_space = 0;       ///< per-core bytes while executing.
    double flops = 0.0;
};

/// Full program: operators in execution order plus the preload order.
struct SimProgram {
    std::vector<SimOp> ops;  ///< indexed by execution order.
    /// Execution-order indices in preload issue order.
    std::vector<int> preload_order;
    /// For preload_order[r]: the execution index before which the
    /// preload_async is issued (it must wait for execute(slot-1)).
    std::vector<int> issue_slot;

    /// Builds identity preload order with slots = own exec index.
    void finalize_default_order();

    /// Sanity checks (sizes match, every op preloaded exactly once,
    /// slots in range and monotone); panics on violation.
    void validate() const;
};

/**
 * Resumable interpreter state for SimPrograms on one Machine.
 *
 * A state outlives individual programs: begin() loads a program at the
 * current clock, step()/run_to() advance it, finish() returns its
 * SimResult (timestamps relative to its begin). The next begin()
 * continues on the same clock, which is how the serving runtime
 * simulates back-to-back decode iterations and idle gaps.
 *
 * Residency: with a non-zero residency budget, operator weights stay
 * in SRAM after their execute completes. A subsequent program whose
 * operator matches a resident entry (same op id, HBM bytes, and
 * footprint) completes its preload instantly without touching HBM —
 * the steady-state decode fast path. Entries are admitted in retire
 * order while the budget lasts; under SRAM pressure the oldest
 * unpinned entry — weight or KV segment — is evicted first. A zero
 * budget reproduces one-shot Engine::run() semantics exactly.
 *
 * Preemption: park() lifts the loaded program's whole interpreter
 * frame (network flows, phase timers, per-op timings, local clock) off
 * the state; begin()/resume() can then run other programs on the same
 * state — sharing the residency pool — and resume() puts the parked
 * frame back with its local clock intact, so the victim's remaining
 * arithmetic (and result bits) are unchanged by the interruption as
 * long as the interleaved programs leave the resident entries it uses
 * alone (entries consumed by a parked program stay pinned). While
 * parked, a program's flows are quiesced: the model is that the
 * hardware halts the victim's DMA queues at the boundary.
 *
 * KV segments: the pool's second entry class. A segment models one
 * serving request's decode KV state — per-core bytes that grow with
 * every decoded token, occupy SRAM next to resident weights, and
 * compete with them under pressure eviction. Segments are never
 * implicitly created by programs; the serving runtime drives the
 * kv_alloc/kv_grow/kv_pin/kv_free lifecycle between iterations (see
 * docs/ENGINE.md for the full contract). With no segments the
 * engine's arithmetic is bit-identical to the KV-free engine.
 */
class EngineState {
    struct Frame;  // one loaded program's interpreter state, below.

  public:
    struct Options {
        /// Per-core byte cap on weights kept resident across programs;
        /// 0 disables retention entirely.
        uint64_t residency_budget = 0;
        /// Per-core byte cap on resident KV segments; 0 = uncapped
        /// (segments still occupy SRAM, they just never spill at a
        /// budget boundary — only under pressure). The serving runtime
        /// only creates segments when its own kv_budget is non-zero,
        /// which is what keeps the default bit-identical to the
        /// KV-free engine.
        uint64_t kv_budget = 0;
    };

    explicit EngineState(const Machine& machine);
    EngineState(const Machine& machine, Options opts);

    /// Loads @p program at the current clock. Requires done(). The
    /// program must stay alive until finish(). Resident entries that
    /// are stale for this program (same op id, different preload
    /// footprint or HBM volume) are evicted here unless pinned by a
    /// parked program; entries for absent op ids stay (they may serve
    /// a later program of another class).
    void begin(const SimProgram& program);

    /**
     * begin() through the iteration memo. After the stale eviction,
     * the (program, weight pool) pair is looked up among earlier runs
     * of this state. A hit applies when its run never met SRAM
     * pressure and still fits under the usable SRAM from the current
     * occupancy, or when it did meet pressure and the pool is KV-free
     * at the recorded occupancy. On an applicable hit whose completion
     * clock (now() when the run's last event fires) lies strictly
     * before @p watch, the run is replayed whole: the pool, its
     * counters, the occupancy and the clock land exactly where
     * stepping would have left them, done() is true, finish() returns
     * the memoized result, and this returns true. Otherwise the
     * program is loaded as by begin() and this returns false; if the
     * caller then drives it to finish() by step() alone, unparked and
     * with no occupancy-moving KV call in between (see the KV section),
     * the run is recorded, unless pressure eviction fired while the
     * pool held KV segments. A run begun here, stepped or replayed,
     * finishes with an empty SimResult::timing; begin() keeps it. A
     * replay skips load()'s per-op set-up. The state keeps
     * @p program alive while it is loaded or parked, and while the
     * memo holds it; a program the memo holds is not validated again.
     * See docs/ENGINE.md, "Iteration memo".
     */
    bool begin_memo(std::shared_ptr<const SimProgram> program, double watch);

    /// Runs begin_memo() replayed from the memo since construction.
    int64_t replays() const { return replays_; }

    /// Memo entries a state holds; a record beyond this overwrites
    /// the oldest entry.
    static constexpr size_t kMemoCapacity = 1024;

    /// True when no program is loaded or the loaded one has finished
    /// (every execute and preload complete).
    bool done() const;

    /// Global simulation clock in seconds, monotone across programs.
    /// Internally each program runs on a zero-based local clock (so a
    /// run's arithmetic — and result bits — do not depend on when it
    /// starts); now() is the local clock plus the accumulated base.
    double now() const { return clock_base_ + f_.t; }

    /// Advances past the next event of the loaded program; returns
    /// false (and does nothing) once done().
    bool step();

    /**
     * Advances until done() or the clock reaches @p t_target. When the
     * program finishes early — or none is loaded — the clock still
     * moves to @p t_target as idle time, so the serving runtime can
     * wait for the next request arrival.
     */
    void run_to(double t_target);

    /// Finalizes the loaded program's result (requires done()) and
    /// unloads it. Timestamps are relative to its begin() call; a
    /// one-shot run from a fresh state is bit-identical to
    /// Engine::run().
    SimResult finish();

    /**
     * The lifted interpreter frame of a parked program. Move-only and
     * opaque: it is only useful to hand back to resume() on the state
     * that produced it.
     */
    class Parked {
      public:
        Parked(Parked&&) = default;
        Parked& operator=(Parked&&) = default;

      private:
        friend class EngineState;
        explicit Parked(std::unique_ptr<Frame> f) : f_(std::move(f)) {}
        std::unique_ptr<Frame> f_;
    };

    /**
     * Parks the loaded program at the current step() boundary and
     * returns its frame; the state is then idle (done()) at the same
     * global clock and can begin() other programs. The parked
     * program's local clock is frozen while it is off the state.
     * Requires a loaded, unfinished program.
     */
    Parked park();

    /**
     * Puts a parked frame back. Requires the state to be idle (the
     * interleaved program finished). The global clock keeps its
     * current value — the victim's local clock continues from where
     * park() froze it, so time spent preempted never enters its own
     * result arithmetic.
     */
    void resume(Parked&& parked);

    /// Bytes per core currently resident across programs.
    uint64_t resident_bytes() const { return resident_bytes_; }

    /// Number of operators whose weights are resident.
    int resident_ops() const { return static_cast<int>(resident_.size()); }

    /// Op ids of the resident entries, ascending (test/diagnostics).
    std::vector<int> resident_op_ids() const;

    /**
     * Adjusts the residency budget between programs. The serving
     * runtime sizes it to the measured slack (usable SRAM minus the
     * cold run's peak) after the first iteration: entries retained
     * within that slack never face pressure eviction, so they survive
     * a whole decode cycle and satisfy the next iteration's preloads.
     * Shrinking the budget stops new retention but does not evict
     * existing entries (pressure eviction still does).
     */
    void set_residency_budget(uint64_t bytes)
    {
        opts_.residency_budget = bytes;
        recording_ = false;
    }

    /// Preloads satisfied from residency since construction.
    int64_t resident_hits() const { return resident_hits_; }

    /// Resident entries evicted under SRAM pressure since
    /// construction.
    int64_t resident_evictions() const { return resident_evictions_; }

    // --- KV segments -----------------------------------------------
    //
    // A KV segment is a request's decode KV state, modeled as a
    // first-class entry of the residency pool: per-core bytes that
    // occupy SRAM next to resident weights, compete with them under
    // pressure eviction, and can be pinned (in use by a running or
    // parked iteration) or spilled to HBM (evicted). Segments are
    // created/grown/freed by the serving runtime between programs;
    // the engine owns the byte accounting and the eviction decisions.
    // A spilled segment stays owned (its bytes live in HBM) until
    // kv_free(); re-admitting it is kv_fetch(), whose HBM transfer
    // time the caller charges (see runtime::Server). A KV call that
    // moves the occupancy or the recency counter (alloc, fetch, grow,
    // pin, free) cancels the memo recording of a loaded run: its
    // post-state would no longer follow from its key.

    /**
     * Creates the segment @p id at @p per_core_bytes and tries to
     * make it resident, spilling unpinned KV segments oldest first
     * while the KV budget requires it. Returns whether the segment is
     * resident (false = born spilled: the budget is exhausted by
     * pinned segments, or the segment alone exceeds it). @p id must
     * not already exist.
     */
    bool kv_alloc(int64_t id, uint64_t per_core_bytes);

    /// Re-admits a spilled segment (same spill rules as kv_alloc);
    /// true when @p id ends up resident. A resident @p id is a no-op
    /// returning true. The caller models the HBM transfer this stands
    /// for by advancing the clock (run_to) before the next program.
    bool kv_fetch(int64_t id);

    /// Grows @p id by @p per_core_bytes — one decoded token's KV, or
    /// a whole prefill chunk's worth at once: chunked prefill
    /// (runtime::ServerOptions::prefill_chunk) grows a prompt's
    /// segment chunk by chunk through this same call, so multi-token
    /// growths are first-class. A resident segment's growth can spill
    /// other unpinned segments at the budget boundary — or, when only
    /// the growing segment itself is evictable, spill the segment
    /// whole (the thrash case a tight budget produces). A spilled
    /// segment grows in HBM for free.
    void kv_grow(int64_t id, uint64_t per_core_bytes);

    /// Marks one consuming iteration: pins @p id against every form
    /// of eviction until kv_unpin(), and refreshes its recency.
    /// Requires the segment to be resident. Pins nest (a parked victim
    /// and its interrupter both hold one).
    void kv_pin(int64_t id);

    /// Releases one kv_pin().
    void kv_unpin(int64_t id);

    /// Destroys @p id (request completed), releasing its bytes.
    /// Requires the segment to exist, be unpinned, and hold no shares;
    /// freeing an unowned, pinned, or shared segment panics.
    void kv_free(int64_t id);

    // --- shared prefix segments ------------------------------------
    //
    // A segment can additionally be a *shared prefix*: many requests
    // claim the same cached KV bytes (a common system prompt) instead
    // of each recomputing them. kv_share()/kv_release() manage the
    // refcount. Sharing does not block eviction — an unpinned shared
    // prefix can still be spilled at the budget boundary or under
    // pressure, and the serving runtime prices the re-fetch every
    // sharer then pays — but it does forbid kv_free() and kv_grow():
    // a request growing past a shared prefix must fork a private tail
    // segment (copy-on-extend) rather than mutate bytes other sharers
    // read. With no kv_share() calls every refcount is zero and the
    // pool's arithmetic is bit-identical to the share-free engine.

    /// Registers one sharer on segment @p id. Requires the segment to
    /// exist (resident or spilled).
    void kv_share(int64_t id);

    /// Releases one kv_share(). Releasing a segment with no shares
    /// panics.
    void kv_release(int64_t id);

    /// Current sharer count of @p id (0 for a private segment).
    int kv_share_count(int64_t id) const;

    /// Per-core bytes of resident segments whose share count is > 0.
    uint64_t kv_shared_bytes() const { return kv_shared_bytes_; }

    /// High-water mark of kv_shared_bytes() since construction.
    uint64_t kv_shared_bytes_peak() const { return kv_shared_peak_; }

    /// True when @p id exists and currently occupies SRAM.
    bool kv_resident(int64_t id) const;

    /// Current per-core bytes of segment @p id (resident or spilled).
    uint64_t kv_segment_bytes(int64_t id) const;

    /// Admission-feasibility check for the serving runtime's
    /// backpressure: would a new segment of @p per_core_bytes fit the
    /// KV budget next to the segments that are resident right now,
    /// without spilling any of them? (Always true when uncapped.)
    bool kv_would_fit(uint64_t per_core_bytes) const;

    /// Per-core bytes of resident KV across all segments.
    uint64_t kv_bytes() const { return kv_resident_bytes_; }

    /// High-water mark of kv_bytes() since construction.
    uint64_t kv_bytes_peak() const { return kv_bytes_peak_; }

    /// Number of owned segments (resident + spilled).
    int kv_segments() const { return static_cast<int>(kv_.size()); }

    /// KV segments spilled to HBM since construction — at the KV
    /// budget boundary or under SRAM pressure.
    int64_t kv_evictions() const { return kv_evictions_; }

  private:
    /// Execution-side phase of the per-program state machine.
    enum class ExecPhase { kWaitPreload, kDistribute, kExecute, kDone };

    /// One resident weight set left behind by a completed execute.
    struct ResidentEntry {
        uint64_t space = 0;      ///< per-core bytes held.
        double dram_bytes = 0.0; ///< HBM volume the entry substitutes.
        uint64_t seq = 0;        ///< recency for oldest-first eviction.
        /// In-flight consumers among loaded/parked programs (preload
        /// skipped, execute pending) — not evictable while > 0.
        int pin_count = 0;
    };

    /// One request's decode KV state in the residency pool.
    struct KvSegment {
        uint64_t bytes = 0;  ///< per-core bytes (prompt + decoded).
        uint64_t seq = 0;    ///< recency (shared counter with weights).
        int pin_count = 0;   ///< running/parked consumers; > 0 blocks
                             ///< every form of eviction.
        int share_count = 0; ///< prefix sharers; > 0 forbids
                             ///< kv_free()/kv_grow(), not eviction.
        bool resident = false;  ///< in SRAM (vs spilled to HBM).
    };

    /// A weight entry of a memoized run's pool post-state. op_id,
    /// space, dram_bytes and pin_count are absolute. When the run
    /// neither evicted the entry nor refreshed its recency, `pre`
    /// indexes the same entry in the pre-pool and seq is that entry's
    /// own; otherwise pre is -1 and seq is an offset past the
    /// pre-state's resident_seq_.
    struct MemoSlot {
        int op_id = -1;
        int pre = -1;  // beside op_id: no padding after either
        ResidentEntry entry;
    };

    /// One memoized run: its key and everything stepping changed.
    struct MemoEntry {
        /// Held so a freed program's address never aliases a new one.
        std::shared_ptr<const SimProgram> program;
        uint64_t hash = 0;
        std::vector<uint64_t> key;  ///< canonical pre-pool, see memo_key().
        SimResult result;           ///< finish()'s return value (no timing).
        double t_final = 0.0;       ///< local clock at completion.
        std::vector<MemoSlot> post;
        uint64_t resident_bytes = 0;
        double base = 0.0;       ///< occupancy at the run's begin.
        double peak = 0.0;       ///< the run's peak occupancy.
        double occupancy = 0.0;  ///< occupancy at completion.
        /// Some pressure check saw occupancy above the usable SRAM (or
        /// the peak lies above it): the run read the whole pool and its
        /// exact occupancy, so it replays only from a KV-free pool at
        /// the base's bits.
        bool pressured = false;
        uint64_t seq_delta = 0;
        int64_t hits_delta = 0;
        int64_t evictions_delta = 0;
    };

    /**
     * Everything the interpreter knows about one loaded program: the
     * fluid network with its in-flight flows, the exec/preload state
     * machines, per-op timings, accounting integrals, and the
     * program-local clock. begin() builds one, finish() tears it
     * down, park()/resume() move it off/onto the state whole — which
     * is what makes preemption a frame swap instead of a simulator
     * special case.
     */
    struct Frame {
        const SimProgram* program = nullptr;
        /// begin_memo()'s reference: keeps the program alive while
        /// loaded or parked, and is what record() stores.
        std::shared_ptr<const SimProgram> owner;
        std::optional<FluidNetwork> net;
        SimResult result;  ///< everything but timing until finish().
        /// Per-op phase timestamps; finish() hands them over only for
        /// a begin() run. Kept for every run: interconnect_stall reads
        /// pre_start.
        std::vector<OpTiming> timing;
        double t = 0.0;  ///< local clock (zero at begin).
        int exec_i = 0;
        ExecPhase phase = ExecPhase::kDone;
        double phase_local_left = 0.0;
        FlowId phase_flow = -1;
        FlowId stream_flow = -1;
        double phase_start = 0.0;
        int pre_r = 0;
        FlowId pre_flow = -1;
        double pre_latency_left = 0.0;
        int pre_op = -1;
        int completed_execs = 0;
        std::vector<bool> preload_done;
        /// Per op: preload was satisfied by a residency hit (so this
        /// program owes the entry an unpin + occupancy credit at
        /// retire). Distinguishes "we consumed the entry" from "a
        /// matching entry appeared while we were parked".
        std::vector<bool> used_resident;
        bool complete = false;
        bool replayed = false;  ///< completed from the memo; result final.
        double t_complete = 0.0;  ///< local clock at completion.
        double peak = 0.0;
        double hbm_busy = 0.0;
        double fabric_preload = 0.0;
        double fabric_peer = 0.0;
        int guard = 0;
    };

    bool preload_active() const { return f_.pre_op >= 0; }
    bool exec_active() const;
    bool program_complete() const;
    /// Runs state transitions until quiescent (the event dispatch).
    void advance_transitions();
    /// Seconds until the next internal event (+inf when none).
    double event_horizon() const;
    /// Integrates accounting and moves flows/timers/clock by @p dt.
    void advance_time(double dt);
    /// Advances past one event, clipping at @p cap; false when done.
    bool step_until(double cap);
    /// True when @p entry holds exactly the bytes @p op preloads.
    static bool entry_matches(const ResidentEntry& entry, const SimOp& op);
    /// Pool index of op @p op_id's weight entry, -1 when absent.
    int resident_find(int op_id) const;
    /// Index of the oldest (lowest seq) slot of @p slots among those
    /// @p evictable accepts; -1 when none does. Both pools draw seqs
    /// from one counter, so their victims compare directly.
    template <typename Slot, typename Evictable>
    int scan_victim(const std::vector<Slot>& slots,
                    Evictable&& evictable) const;
    /// The next weight entry to evict (unpinned, lowest seq); -1 when
    /// everything is pinned.
    int pick_victim() const;
    /// Drops the entry at @p idx from the resident set and the
    /// occupancy.
    void evict(int idx);
    /// Pool index of segment @p id, -1 when unowned.
    int kv_find(int64_t id) const;
    /// The oldest resident, unpinned KV segment (-1 when none), optionally excluding @p excluded_id.
    int kv_pick_victim(int64_t excluded_id = -1) const;
    /// Spills the segment at @p idx to HBM: bytes leave SRAM, the
    /// segment stays owned (resident = false).
    void kv_spill(int idx);
    /// Debug-build audit of the flat pools: sortedness and the
    /// running byte counters (resident_bytes_, kv_resident_bytes_)
    /// against full rescans. Compiled out under NDEBUG.
    void check_pool_invariants() const;
    /// Folds the previous program's span into the clock base and
    /// rebuilds f_ for @p program, keeping the previous frame's heap
    /// blocks (flow table, per-op vectors) emptied.
    void reset_frame(const SimProgram& program);
    /// begin()'s stale eviction: drops unpinned entries whose op id
    /// @p program mentions with a different footprint or HBM volume.
    /// The first exec index of a duplicated op id decides.
    void evict_stale(const SimProgram& program);
    /// Drops the unpinned entry at @p idx when it is stale for @p op;
    /// true when it did.
    bool drop_if_stale(size_t idx, const SimOp& op);
    /// reset_frame() plus the per-op state stepping needs.
    void load(const SimProgram& program);
    /// Fills memo_key_ with the weight pool's canonical form; returns
    /// its hash (mixed with @p program's address).
    uint64_t memo_key(const SimProgram* program);
    /// True when @p m may complete a run from the current pool: its
    /// headroom guard holds (pressure-free), or the pool is KV-free at
    /// its base occupancy (pressured).
    bool memo_applies(const MemoEntry& m) const;
    /// Completes the loaded frame from @p m (see begin_memo()).
    void replay(const MemoEntry& m);
    /// Stores the run that just finished with @p result.
    void record(const SimResult& result);
    /// Spills unpinned KV oldest first until @p need extra bytes
    /// fit the KV budget; false when pinned segments are in the way
    /// (or @p need alone exceeds the budget). @p excluded_id is never
    /// spilled. No-op true when uncapped.
    bool kv_make_room(uint64_t need, int64_t excluded_id = -1);
    /// Evicts the oldest unpinned entry — weight or KV segment — while
    /// per-core occupancy exceeds the machine's usable SRAM.
    void relieve_pressure();
    /// Retention decision at execute completion of op @p i.
    void retire_op(int i);

    double standalone_preload(const SimOp& op) const;
    double standalone_exec(const SimOp& op) const;
    double standalone_distribute(const SimOp& op) const;

    const Machine& machine_;
    Options opts_;

    /// Flat-pool slot of the weights class: the pools are sorted
    /// vectors (ascending key), not node-based maps — pool scans
    /// (victim picks, stale eviction, pressure relief) run on every
    /// engine step and iterate contiguous memory, and lookups are a
    /// binary search over a handful of cache lines.
    struct ResidentSlot {
        int op_id;
        ResidentEntry entry;
        uint64_t seq() const { return entry.seq; }
    };
    /// Flat-pool slot of the KV class (sorted by request id).
    struct KvSlot {
        int64_t id;
        KvSegment seg;
        uint64_t seq() const { return seg.seq; }
    };

    // --- cross-program state ---
    double clock_base_ = 0.0;  ///< global seconds before this program.
    std::vector<ResidentSlot> resident_;  ///< sorted by op id.
    uint64_t resident_bytes_ = 0;
    uint64_t resident_seq_ = 0;
    int64_t resident_hits_ = 0;
    int64_t resident_evictions_ = 0;
    std::vector<KvSlot> kv_;  ///< sorted by request id.
    uint64_t kv_resident_bytes_ = 0;
    uint64_t kv_bytes_peak_ = 0;
    uint64_t kv_shared_bytes_ = 0;  ///< resident bytes with shares > 0.
    uint64_t kv_shared_peak_ = 0;
    int64_t kv_evictions_ = 0;
    double occupancy_ = 0.0;  ///< per-core bytes (incl. residents
                              ///< and resident KV segments).
    /// evict_stale()'s scratch: the incoming program's (op_id, exec
    /// index) pairs, sorted — reused so begin() allocates no lookup
    /// structure per iteration.
    std::vector<std::pair<int, int>> begin_scratch_;

    // --- the iteration memo (see begin_memo()) ---
    std::vector<MemoEntry> memo_;
    size_t memo_next_ = 0;  ///< slot the next record takes once full.
    int64_t replays_ = 0;
    /// The key of the latest begin_memo() — the recording run's.
    std::vector<uint64_t> memo_key_;
    std::vector<ResidentSlot> replay_scratch_;  ///< replay()'s new pool.
    /// memo_key()'s (seq, pool index) pairs, sorted to rank recency.
    std::vector<std::pair<uint64_t, int>> rank_scratch_;
    /// The loaded run is being recorded: begun by begin_memo() with no
    /// applicable memo hit, and since then only stepped.
    bool recording_ = false;
    /// A pressure check of the recorded run saw occupancy above the
    /// usable SRAM.
    bool rec_pressured_ = false;
    /// The recorded run's key hash, base occupancy, pre-pool and
    /// counters.
    uint64_t rec_hash_ = 0;
    double rec_base_ = 0.0;
    std::vector<ResidentSlot> rec_pre_;
    uint64_t rec_seq_ = 0;
    int64_t rec_hits_ = 0;
    int64_t rec_evictions_ = 0;
    std::vector<int> rec_evicted_;  ///< op ids evicted during the run.

    // --- the loaded program (reset by begin, swapped by park/resume)
    Frame f_;
};

/// Runs SimPrograms on a Machine.
class Engine {
  public:
    explicit Engine(const Machine& machine) : machine_(machine) {}

    /// Simulates @p program to completion on a fresh EngineState
    /// (no residency) and returns the trace.
    SimResult run(const SimProgram& program) const;

  private:
    const Machine& machine_;
};

}  // namespace elk::sim

#endif  // ELK_SIM_ENGINE_H
