/**
 * @file
 * The serving scheduler's wait queues (one part of DisaggRun, server.cc):
 * four queues — (prefill | decode) x (high | normal) — whose order is
 * claim order: arrival order, EDF with slo, and the length-aware order
 * under prefill_chunk. Nothing re-sorts a queue: enqueue() inserts at
 * the claim position, and under chunking each prefill claim moves the
 * prompts that cross the starvation cap into their queue's starved
 * prefix. Starvation is measured on a prefill-claim clock, so the other
 * prompts never change order between claims. The queues also own SLO
 * tenancy: tenant deficits and deadline-preemption budgets.
 */
#ifndef ELK_RUNTIME_WAIT_QUEUES_H
#define ELK_RUNTIME_WAIT_QUEUES_H

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/server.h"

namespace elk::runtime {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// @p r's deadline with 0 = "none" mapped to +inf, so EDF comparisons
/// need no special case.
inline double
effective_deadline(const Request& r)
{
    return r.deadline_s > 0.0 ? r.deadline_s : kInf;
}

/// Which waiting requests a claim may take.
enum class ClaimMode {
    kAll,       ///< both classes (normal scheduling).
    kHighOnly,  ///< high-priority queue only (priority preemption).
    /// High-priority members plus deadline carriers more urgent than
    /// the bar of the last take_trigger() (deadline preemption).
    kUrgent,
};

/// A claim's admission step's verdict on one candidate.
enum class Admit {
    kTake,  ///< claim it.
    kPass,  ///< leave it queued and walk on.
    kStop,  ///< leave it queued and end the claim.
};

class WaitQueues {
  public:
    /// Settles both classes' order from @p opts; with slo, sizes
    /// @p rep's tenant shares and counts each tenant's requests there.
    /// @p requests must be validated.
    WaitQueues(const ServerOptions& opts, const std::vector<Request>& requests,
               ServingReport& rep);

    /// Queues every request that has arrived by @p now.
    void admit(double now);
    /// Arrival time of the next unqueued request; requires one.
    double next_arrival() const { return requests_[next_arrival_].arrival; }
    /// Arrival time of the next unqueued preemption watcher (a high-
    /// priority request or a deadline carrier with budget), or +inf.
    double next_watcher() const { return next_watcher_; }

    /// Requests waiting in all four queues.
    size_t waiting() const
    {
        return queue_[0][0].size() + queue_[0][1].size() +
               queue_[1][0].size() + queue_[1][1].size();
    }
    /// Whether anyone waits in the prefill (@p prefill) or decode class.
    bool waiting(bool prefill) const
    {
        return !queue_[prefill][0].empty() || !queue_[prefill][1].empty();
    }
    bool high_waiting(bool prefill) const
    {
        return !queue_[prefill][1].empty();
    }
    /// The prompt a prefill claim examines first; -1 when none waits.
    int prefill_head() const
    {
        const std::deque<int>& q = queue_[1][queue_[1][1].empty() ? 0 : 1];
        return q.empty() ? -1 : q.front();
    }

    /// Inserts @p r at its claim position in its prefill (@p prefill)
    /// or decode queue. @p remaining, the prompt tokens it has left, is
    /// the chunked order's length key, fixed while the prompt waits.
    void enqueue(int r, bool prefill, int remaining = 0);
    /// Returns a nested decode iteration's survivors: to the head of
    /// the high-priority queue in batch order, or (EDF) each to its
    /// slot in its own class.
    void requeue(const std::vector<int>& survivors);

    /**
     * The claim walk: fills @p members up to the class's batch cap from
     * the high queue, then (unless kHighOnly) the normal one, in queue
     * order. Each candidate eligible under @p mode whose tenant holds
     * deficit goes to @p step, which takes it (having done its
     * per-member work), passes it over or ends the claim. With
     * @p windows, a walk that leaves slots free while eligible work is
     * blocked on deficit opens a fairness window and walks again.
     */
    template <typename Step>
    void claim(bool prefill, ClaimMode mode, std::vector<int>& members,
               Step&& step, bool windows = true);

    /// Deadline preemption: the EDF-first queued carrier with trigger
    /// budget when its deadline beats @p bar (else -1), which spends a
    /// budget and makes @p bar the one kUrgent claims apply. @p prefill
    /// reports whether it waits in a prefill queue.
    int take_trigger(double bar, bool* prefill);

    /// Charges @p tokens of executed work to @p r's tenant (slo).
    void charge(int r, int64_t tokens);

  private:
    /// How a queue class orders its members.
    enum class Order : char { kArrival, kDeadline, kLength };
    enum class Waiting : char { kNone, kPrefill, kDecode };

    /// Claim passes a waiting prompt may be passed over before the
    /// bounded fairness window moves it to the queue head — the cap
    /// that keeps length-aware claiming from starving giants.
    static constexpr int kChunkStarveLimit = 8;

    bool eligible(int r, ClaimMode mode) const
    {
        const Request& q = requests_[r];
        return mode == ClaimMode::kAll || q.priority == Priority::kHigh ||
               (mode == ClaimMode::kUrgent && q.deadline_s > 0.0 &&
                q.deadline_s < urgent_bar_);
    }
    /// The deficit gate: @p r's tenant spent its window (slo only).
    bool blocked(int r) const
    {
        return !quantum_.empty() && deficit_[requests_[r].tenant] <= 0.0;
    }
    /// Strict EDF order: (effective deadline, request id).
    bool edf_before(int a, int b) const
    {
        return std::make_pair(effective_deadline(requests_[a]), a) <
               std::make_pair(effective_deadline(requests_[b]), b);
    }
    /// Chunked order: starved prompts first, then (effective deadline,
    /// remaining length, id) — a total order.
    bool pre_before(int a, int b) const
    {
        return std::make_tuple(!pre_starved_[a],
                               effective_deadline(requests_[a]), pre_len_[a],
                               a) <
               std::make_tuple(!pre_starved_[b],
                               effective_deadline(requests_[b]), pre_len_[b],
                               b);
    }
    /// Opens one fairness window: every deficit gains its quantum,
    /// capped at one quantum of credit (an idle tenant cannot hoard
    /// windows; one in debt climbs out a window at a time).
    void replenish();
    /// Moves every prompt the last prefill claim pushed across the
    /// starvation cap into the starved prefix of its queue.
    void promote_starved();

    const ServerOptions& opts_;
    const std::vector<Request>& requests_;
    ServingReport& rep_;
    const Order pre_order_;
    const Order dec_order_;

    std::deque<int> queue_[2][2];  ///< [prefill][high], request ids.
    /// Per request: the queue class it waits in. Set by enqueue(),
    /// cleared by the claim that takes it.
    std::vector<Waiting> waiting_;
    int next_arrival_ = 0;
    int next_watcher_idx_ = 0;
    double next_watcher_ = kInf;

    /// Per tenant (slo only): deficit-round-robin token credit. A claim
    /// needs positive deficit; execution charges actual tokens, so a
    /// large prompt can push a tenant into debt it repays over windows.
    std::vector<double> deficit_;
    /// Per tenant: tokens granted per fairness window.
    std::vector<double> quantum_;
    /// Per request: deadline preemptions it may still trigger.
    std::vector<int> preempt_left_;
    /// (deadline, request) of every deadline carrier enqueued with
    /// trigger budget, EDF-first. Entries of requests that left the
    /// queues or spent their budget are stale; take_trigger() drops
    /// them when they surface.
    std::priority_queue<std::pair<double, int>,
                        std::vector<std::pair<double, int>>, std::greater<>>
        trigger_heap_;
    /// The deadline a kUrgent claim's carriers must beat.
    double urgent_bar_ = kInf;

    /// Prefill claims taken so far: the clock starvation is measured
    /// on.
    int64_t prefill_claims_ = 0;
    /// Per request: its remaining prompt tokens, its prefill_claims_
    /// when it last entered a prefill queue (starved once the clock is
    /// kChunkStarveLimit past it), and the starved bit pre_before()
    /// orders by, written only while the prompt is out of its queue.
    std::vector<int> pre_len_;
    std::vector<int64_t> pre_epoch_;
    std::vector<char> pre_starved_;
    /// (epoch, request) per prefill enqueue, in enqueue order: prompts
    /// cross the cap in this order, so the crossers sit at the front.
    /// Entries of prompts claimed since are stale and dropped there.
    std::deque<std::pair<int64_t, int>> starve_fifo_;
};

template <typename Step>
void
WaitQueues::claim(bool prefill, ClaimMode mode, std::vector<int>& members,
                  Step&& step, bool windows)
{
    const size_t cap = static_cast<size_t>(
        prefill ? opts_.max_prefill_batch : opts_.max_batch);
    bool stopped = false;
    // Deficit-round-robin in queue order. A walk takes every claimable
    // member, and deficits only change at execution, so repeating it
    // without a window would take nobody. Without slo nobody is
    // blocked, so one walk takes the queue prefix and no window opens.
    for (;;) {
        bool blocked_seen = false;
        for (const bool high : {true, false}) {
            if (!high && mode == ClaimMode::kHighOnly) {
                break;
            }
            std::deque<int>& q = queue_[prefill][high];
            for (auto it = q.begin();
                 !stopped && it != q.end() && members.size() < cap;) {
                const int r = *it;
                Admit verdict = Admit::kPass;
                if (eligible(r, mode)) {
                    if (blocked(r)) {
                        blocked_seen = true;
                    } else {
                        verdict = step(r);
                    }
                }
                if (verdict == Admit::kTake) {
                    members.push_back(r);
                    waiting_[r] = Waiting::kNone;
                    it = q.erase(it);
                } else if (verdict == Admit::kPass) {
                    ++it;
                } else {
                    stopped = true;
                }
            }
        }
        // Slots free, eligible work blocked on deficit alone: open a
        // window. Every window lifts each blocked tenant's deficit by
        // its quantum, so within finitely many windows a walk claims.
        if (stopped || members.size() >= cap || !windows || !blocked_seen) {
            break;
        }
        replenish();
    }
    if (prefill && !members.empty()) {
        ++prefill_claims_;
        promote_starved();
    }
}

}  // namespace elk::runtime

#endif  // ELK_RUNTIME_WAIT_QUEUES_H
