#include "runtime/wait_queues.h"

#include <algorithm>
#include <numeric>

namespace elk::runtime {

WaitQueues::WaitQueues(const ServerOptions& opts,
                       const std::vector<Request>& requests,
                       ServingReport& rep)
    : opts_(opts),
      requests_(requests),
      rep_(rep),
      pre_order_(opts.prefill_chunk > 0 ? Order::kLength
                 : opts.slo             ? Order::kDeadline
                                        : Order::kArrival),
      dec_order_(opts.slo ? Order::kDeadline : Order::kArrival),
      waiting_(requests.size(), Waiting::kNone),
      preempt_left_(requests.size(), opts.preempt_budget),
      pre_len_(requests.size(), 0),
      pre_epoch_(requests.size(), 0),
      pre_starved_(requests.size(), false)
{
    if (!opts.slo) {
        return;
    }
    rep.tenant_shares.resize(opts.tenants);
    for (int t = 0; t < opts.tenants; ++t) {
        rep.tenant_shares[t].tenant = t;
    }
    for (const Request& r : requests) {
        ServingReport::TenantShare& s = rep.tenant_shares[r.tenant];
        ++s.requests;
        s.deadline_requests += r.deadline_s > 0.0 ? 1 : 0;
    }
    // Per-window quanta: the window's tokens split by normalized share.
    // A window is one full decode batch plus one maximal prompt: enough
    // that a lone tenant never stalls between windows, small enough
    // that shares bite within a few iterations under contention. The
    // Server constructor validated the share vector.
    const double window = opts.max_batch + opts.max_prompt_len;
    std::vector<double> shares = opts.tenant_shares;
    shares.resize(opts.tenants, 1.0);
    const double wsum = std::accumulate(shares.begin(), shares.end(), 0.0);
    for (double w : shares) {
        quantum_.push_back(window * w / wsum);
    }
    // Every tenant starts with a full window (not counted in
    // fairness_windows — no claim was ever blocked for it).
    deficit_ = quantum_;
}

void
WaitQueues::admit(double now)
{
    const int n = static_cast<int>(requests_.size());
    while (next_arrival_ < n && requests_[next_arrival_].arrival <= now) {
        const int r = next_arrival_++;
        enqueue(r, requests_[r].phase == Phase::kPrefill,
                effective_prompt_len(requests_[r], opts_.max_prompt_len));
    }
    // The watcher cursor only moves forward, so the whole serve scans
    // each request once. An unqueued request still holds its whole
    // trigger budget.
    next_watcher_idx_ = std::max(next_watcher_idx_, next_arrival_);
    while (next_watcher_idx_ < n &&
           requests_[next_watcher_idx_].priority != Priority::kHigh &&
           !(requests_[next_watcher_idx_].deadline_s > 0.0 &&
             preempt_left_[next_watcher_idx_] > 0)) {
        ++next_watcher_idx_;
    }
    next_watcher_ =
        next_watcher_idx_ < n ? requests_[next_watcher_idx_].arrival : kInf;
}

void
WaitQueues::enqueue(int r, bool prefill, int remaining)
{
    const Request& req = requests_[r];
    std::deque<int>& q = queue_[prefill][req.priority == Priority::kHigh];
    waiting_[r] = prefill ? Waiting::kPrefill : Waiting::kDecode;
    if (req.deadline_s > 0.0 && preempt_left_[r] > 0) {
        trigger_heap_.emplace(req.deadline_s, r);
    }
    switch (prefill ? pre_order_ : dec_order_) {
    case Order::kArrival:
        q.push_back(r);
        break;
    case Order::kDeadline:
        q.insert(std::upper_bound(
                     q.begin(), q.end(), r,
                     [this](int a, int b) { return edf_before(a, b); }),
                 r);
        break;
    case Order::kLength:
        // Enters unstarved at its claim-order position;
        // promote_starved() moves it once the cap passes.
        pre_len_[r] = remaining;
        pre_epoch_[r] = prefill_claims_;
        pre_starved_[r] = false;
        starve_fifo_.emplace_back(prefill_claims_, r);
        q.insert(std::upper_bound(
                     q.begin(), q.end(), r,
                     [this](int a, int b) { return pre_before(a, b); }),
                 r);
        break;
    }
}

void
WaitQueues::requeue(const std::vector<int>& survivors)
{
    if (dec_order_ == Order::kDeadline) {
        for (int r : survivors) {
            enqueue(r, /*prefill=*/false);
        }
        return;
    }
    std::deque<int>& q = queue_[0][1];
    q.insert(q.begin(), survivors.begin(), survivors.end());
    for (int r : survivors) {
        waiting_[r] = Waiting::kDecode;
    }
}

void
WaitQueues::replenish()
{
    ++rep_.fairness_windows;
    for (size_t i = 0; i < quantum_.size(); ++i) {
        deficit_[i] = std::min(deficit_[i] + quantum_[i], quantum_[i]);
    }
}

void
WaitQueues::promote_starved()
{
    auto cmp = [this](int a, int b) { return pre_before(a, b); };
    while (!starve_fifo_.empty() &&
           prefill_claims_ - starve_fifo_.front().first >=
               kChunkStarveLimit) {
        const auto [epoch, r] = starve_fifo_.front();
        starve_fifo_.pop_front();
        if (waiting_[r] != Waiting::kPrefill || pre_epoch_[r] != epoch) {
            continue;  // claimed since it was queued
        }
        std::deque<int>& q =
            queue_[1][requests_[r].priority == Priority::kHigh];
        q.erase(std::lower_bound(q.begin(), q.end(), r, cmp));
        pre_starved_[r] = true;
        q.insert(std::upper_bound(q.begin(), q.end(), r, cmp), r);
    }
}

int
WaitQueues::take_trigger(double bar, bool* prefill)
{
    // The first live entry is the EDF-first waiting carrier with
    // budget, so no queue is scanned.
    while (!trigger_heap_.empty()) {
        const auto [d, r] = trigger_heap_.top();
        if (waiting_[r] != Waiting::kNone && preempt_left_[r] > 0) {
            if (!(d < bar)) {
                return -1;
            }
            *prefill = waiting_[r] == Waiting::kPrefill;
            --preempt_left_[r];
            urgent_bar_ = bar;
            return r;
        }
        trigger_heap_.pop();
    }
    return -1;
}

void
WaitQueues::charge(int r, int64_t tokens)
{
    if (quantum_.empty()) {
        return;
    }
    const int t = requests_[r].tenant;
    rep_.tenant_shares[t].tokens += tokens;
    deficit_[t] -= static_cast<double>(tokens);
}

}  // namespace elk::runtime
