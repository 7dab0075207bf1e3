#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace elk::sim {

namespace {
constexpr double kEpsilonBytes = 1e-6;
}

void
FlowWeights::set(int resource, double weight)
{
    util::check(resource >= 0 && resource < kMaxResources,
                "FlowWeights: bad resource index");
    util::check(weight > 0, "FlowWeights: non-positive weight");
    util::check(w_[resource] == 0.0, "FlowWeights: duplicate resource");
    w_[resource] = weight;
}

FlowWeights::FlowWeights(std::initializer_list<std::pair<int, double>> init)
{
    for (const auto& [res, w] : init) {
        set(res, w);
    }
}

FlowWeights::FlowWeights(const std::map<int, double>& weights)
{
    for (const auto& [res, w] : weights) {
        set(res, w);
    }
}

int
FlowWeights::max_resource() const
{
    for (int res = kMaxResources - 1; res >= 0; --res) {
        if (w_[res] != 0.0) {
            return res;
        }
    }
    return -1;
}

FluidNetwork::FluidNetwork(std::vector<double> capacities)
    : capacities_(std::move(capacities))
{
    for (double c : capacities_) {
        util::check(c > 0, "FluidNetwork: non-positive capacity");
    }
}

FlowId
FluidNetwork::add_flow(double bytes, FlowWeights weights, FlowTag tag)
{
    util::check(bytes > 0, "FluidNetwork: flow with no bytes");
    util::check(weights.max_resource() <
                    static_cast<int>(capacities_.size()),
                "FluidNetwork: bad resource index");
    Flow f;
    f.remaining = bytes;
    f.weights = weights;
    f.tag = tag;
    flows_.push_back(f);
    const FlowId id = static_cast<FlowId>(flows_.size() - 1);
    active_ids_.push_back(id);
    assign_rates();
    return id;
}

bool
FluidNetwork::flow_active(FlowId id) const
{
    return flows_[id].active;
}

double
FluidNetwork::flow_rate(FlowId id) const
{
    return flows_[id].active ? flows_[id].rate : 0.0;
}

void
FluidNetwork::reset_flows()
{
    flows_.clear();
    active_ids_.clear();
}

void
FluidNetwork::reserve_flows(int n)
{
    flows_.reserve(n);
}

void
FluidNetwork::assign_rates()
{
    // Progressive filling: all unfixed flows share a common rate that
    // grows until some resource saturates; flows traversing a
    // saturated resource freeze at the current rate.
    //
    // Weight entries are scanned densely in ascending resource order —
    // the same order the associative form iterated — and zero entries
    // are skipped everywhere a key would have been absent, so every
    // floating-point accumulation below sums the same terms in the
    // same order as the pre-dense implementation (bit-identity).
    const int n_res = static_cast<int>(capacities_.size());
    unfixed_.clear();
    for (FlowId i : active_ids_) {
        flows_[i].rate = 0.0;
        unfixed_.push_back(i);
    }
    left_ = capacities_;

    while (!unfixed_.empty()) {
        // Headroom per resource given the unfixed flows' weights.
        double delta = std::numeric_limits<double>::infinity();
        for (int res = 0; res < n_res; ++res) {
            double weight_sum = 0.0;
            for (int i : unfixed_) {
                weight_sum += flows_[i].weights[res];
            }
            if (weight_sum > 0) {
                delta = std::min(delta, left_[res] / weight_sum);
            }
        }
        if (!std::isfinite(delta)) {
            break;  // remaining flows use no constrained resource
        }

        // Grow everyone, charge resources.
        for (int i : unfixed_) {
            flows_[i].rate += delta;
            for (int res = 0; res < n_res; ++res) {
                double w = flows_[i].weights[res];
                if (w != 0.0) {
                    left_[res] -= delta * w;
                }
            }
        }

        // Freeze flows on (numerically) saturated resources.
        next_unfixed_.clear();
        for (int i : unfixed_) {
            bool saturated = false;
            for (int res = 0; res < n_res; ++res) {
                if (flows_[i].weights[res] != 0.0 &&
                    left_[res] <= 1e-9 * capacities_[res]) {
                    saturated = true;
                    break;
                }
            }
            if (!saturated) {
                next_unfixed_.push_back(i);
            }
        }
        if (next_unfixed_.size() == unfixed_.size()) {
            break;  // no progress possible (shouldn't happen)
        }
        std::swap(unfixed_, next_unfixed_);
    }
}

double
FluidNetwork::time_to_next_completion() const
{
    double best = std::numeric_limits<double>::infinity();
    for (FlowId i : active_ids_) {
        const Flow& f = flows_[i];
        if (f.rate > 0) {
            best = std::min(best, f.remaining / f.rate);
        }
    }
    return best;
}

void
FluidNetwork::advance(double dt)
{
    // In-place compaction of active_ids_: survivors keep their
    // ascending order, completed flows drop out of every later scan.
    size_t out = 0;
    for (FlowId i : active_ids_) {
        Flow& f = flows_[i];
        f.remaining -= f.rate * dt;
        if (f.remaining <= kEpsilonBytes) {
            f.remaining = 0.0;
            f.active = false;
        } else {
            active_ids_[out++] = i;
        }
    }
    if (out != active_ids_.size()) {
        active_ids_.resize(out);
        assign_rates();
    }
}

double
FluidNetwork::resource_usage(int resource, FlowTag tag) const
{
    double usage = 0.0;
    for (FlowId i : active_ids_) {
        const Flow& f = flows_[i];
        if (f.tag != tag) {
            continue;
        }
        double w = f.weights[resource];
        if (w != 0.0) {
            usage += f.rate * w;
        }
    }
    return usage;
}

double
FluidNetwork::resource_usage(int resource) const
{
    double usage = 0.0;
    for (FlowId i : active_ids_) {
        const Flow& f = flows_[i];
        double w = f.weights[resource];
        if (w != 0.0) {
            usage += f.rate * w;
        }
    }
    return usage;
}

int
FluidNetwork::num_active() const
{
    return static_cast<int>(active_ids_.size());
}

}  // namespace elk::sim
