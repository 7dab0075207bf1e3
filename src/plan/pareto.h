/**
 * @file
 * Pareto-front extraction over (memory, time) points (paper §4.3):
 * a plan stays on the front iff no other plan is both at most as
 * large and at most as slow (with one strict).
 */
#ifndef ELK_PLAN_PARETO_H
#define ELK_PLAN_PARETO_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace elk::plan {

/**
 * Returns the Pareto-optimal subset of @p points, sorted by
 * *descending* memory (i.e., ascending time): index 0 is the fastest
 * (largest) plan, the last index the smallest (slowest) plan. This is
 * the walk order of the §4.3 greedy allocator.
 *
 * The front is defined by a sort by (memory, time) ascending followed
 * by a sweep that keeps each point strictly faster than every point
 * kept before it. Only its (memory, time) keys are determined by the
 * point set: when two points share a front key, the one the sort
 * places first wins, and std::sort's placement depends on the whole
 * input. So the front is first built as an exact staircase in one
 * pass; it is the answer unless a front key is shared by two or more
 * points, in which case the sort and sweep run over the untouched
 * input to pick the same winner they always picked.
 *
 * @param points  candidate set.
 * @param mem_of  functor T -> uint64_t memory footprint.
 * @param time_of functor T -> double time cost.
 * @param tied    when non-null, set to whether the tie sort ran.
 */
template <typename T, typename MemFn, typename TimeFn>
std::vector<T>
pareto_front(std::vector<T> points, MemFn mem_of, TimeFn time_of,
             bool* tied = nullptr)
{
    // The staircase: front keys in ascending memory and strictly
    // descending time, each with the index of the first point holding
    // it and whether a later point holds it too.
    struct Step {
        uint64_t mem;
        double time;
        size_t index;
        bool tied;
    };
    std::vector<Step> stairs;
    for (size_t i = 0; i < points.size(); ++i) {
        const uint64_t mem = mem_of(points[i]);
        const double time = time_of(points[i]);
        // The sweep keeps only points faster than +infinity.
        if (!(time < std::numeric_limits<double>::infinity())) {
            continue;
        }
        // First step larger than the point; the step before it is the
        // fastest of those at most as large, the only one that can
        // dominate the point.
        auto it = std::upper_bound(
            stairs.begin(), stairs.end(), mem,
            [](uint64_t m, const Step& s) { return m < s.mem; });
        if (it != stairs.begin()) {
            Step& prev = *(it - 1);
            if (prev.time <= time) {
                if (prev.mem == mem && prev.time == time) {
                    prev.tied = true;
                }
                continue;
            }
            if (prev.mem == mem) {
                --it;  // same memory, slower: the point replaces it
            }
        }
        // The point dominates the run of steps at least as large and
        // at least as slow that starts at `it`; a tie on a dominated
        // key leaves with its step.
        auto last = it;
        while (last != stairs.end() && last->time >= time) {
            ++last;
        }
        if (it == last) {
            stairs.insert(it, Step{mem, time, i, false});
        } else {
            *it = Step{mem, time, i, false};
            stairs.erase(it + 1, last);
        }
    }
    const bool tie = std::any_of(stairs.begin(), stairs.end(),
                                 [](const Step& s) { return s.tied; });
    if (tied != nullptr) {
        *tied = tie;
    }

    std::vector<T> front;
    if (!tie) {
        front.reserve(stairs.size());
        for (auto s = stairs.rbegin(); s != stairs.rend(); ++s) {
            front.push_back(std::move(points[s->index]));
        }
        return front;
    }
    // Sort by memory ascending, time ascending for ties.
    std::sort(points.begin(), points.end(), [&](const T& a, const T& b) {
        if (mem_of(a) != mem_of(b)) {
            return mem_of(a) < mem_of(b);
        }
        return time_of(a) < time_of(b);
    });
    // Sweep: keep a point iff it is strictly faster than everything
    // smaller or equal that we already kept.
    double best_time = std::numeric_limits<double>::infinity();
    for (auto& p : points) {
        if (time_of(p) < best_time) {
            best_time = time_of(p);
            front.push_back(std::move(p));
        }
    }
    // Descending memory == ascending time.
    std::reverse(front.begin(), front.end());
    return front;
}

}  // namespace elk::plan

#endif  // ELK_PLAN_PARETO_H
