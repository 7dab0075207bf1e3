#include "runtime/server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <sstream>
#include <utility>

#include "runtime/iteration_executor.h"
#include "runtime/kv_ledger.h"
#include "runtime/metrics.h"
#include "runtime/wait_queues.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/stats.h"

namespace elk::runtime {

using util::append_bits;

int
pick_bucket(const std::vector<int>& buckets, int need)
{
    for (int b : buckets) {
        if (b >= need) {
            return b;
        }
    }
    return buckets.back();
}

std::vector<int>
chunk_plan(int prompt_len, int chunk)
{
    util::check(prompt_len >= 1, "chunk_plan: prompt_len must be >= 1");
    util::check(chunk >= 1 && (chunk & (chunk - 1)) == 0,
                "chunk_plan: chunk must be a positive power of two");
    std::vector<int> out;
    out.reserve(static_cast<size_t>((prompt_len + chunk - 1) / chunk));
    int left = prompt_len;
    while (left > chunk) {
        out.push_back(chunk);
        left -= chunk;
    }
    out.push_back(left);
    return out;
}

namespace {

/// Prompt-length bucket ladder: empty = powers of two up to @p max;
/// sorted and validated either way.
void
finalize_prompt_buckets(std::vector<int>& buckets, int max)
{
    if (buckets.empty()) {
        for (int b = 1; b < max; b *= 2) {
            buckets.push_back(b);
        }
        buckets.push_back(max);
    }
    std::sort(buckets.begin(), buckets.end());
    util::require(buckets.front() >= 1,
                  "Server: prompt buckets must be positive");
    util::require(buckets.back() == max,
                  "Server: largest prompt bucket must equal "
                  "max_prompt_len");
    util::require(std::adjacent_find(buckets.begin(), buckets.end()) ==
                      buckets.end(),
                  "Server: prompt buckets must be distinct lengths");
}

/// Rejects a Request trace the disaggregated scheduler cannot serve
/// under @p opts; bad input is fatal here, before any part reads it.
void
check_requests(const ServerOptions& opts, const std::vector<Request>& requests)
{
    for (size_t i = 0; i < requests.size(); ++i) {
        const Request& req = requests[i];
        const int len = effective_prompt_len(req, opts.max_prompt_len);
        util::require(req.arrival >= 0 &&
                          (i == 0 || req.arrival >= requests[i - 1].arrival),
                      "Server: requests must be sorted and non-negative");
        util::require(req.decode_tokens >= 1 ||
                          (req.decode_tokens == 0 &&
                           req.phase == Phase::kPrefill),
                      "Server: decode_tokens must be >= 1 (0 is legal "
                      "only for prefill-phase requests — the prefill "
                      "half of a cluster tier split)");
        if (req.phase == Phase::kPrefill || opts.kv_budget > 0) {
            util::require(opts.max_prompt_len >= 1,
                          "Server: prefill-phase requests (and KV "
                          "modeling) need max_prompt_len (the model "
                          "sequence length)");
            util::require(req.prompt_len >= 0 &&
                              req.prompt_len <= opts.max_prompt_len,
                          "Server: prompt_len must be in "
                          "[0, max_prompt_len]");
        }
        if (req.prefix_id >= 0) {
            util::require(opts.prefix_sharing,
                          "Server: prefix-tagged requests need "
                          "ServerOptions::prefix_sharing");
            util::require(req.phase == Phase::kPrefill,
                          "Server: prefix-tagged requests must be "
                          "prefill-phase");
            util::require(req.prefix_len >= 1 && req.prefix_len < len,
                          "Server: prefix_len must be in "
                          "[1, prompt_len - 1]");
        }
        if (req.kv_migrate_tokens != 0 || req.kv_migrate_stall != 0.0) {
            util::require(opts.kv_budget > 0,
                          "Server: KV migration (kv_migrate_tokens) "
                          "needs KV modeling (kv_budget > 0) — the "
                          "migrated segment lives in the modeled pool");
            util::require(req.kv_migrate_tokens >= 1 &&
                              req.kv_migrate_stall >= 0.0,
                          "Server: a migration must carry >= 1 token "
                          "and a non-negative stall");
            if (req.phase == Phase::kPrefill) {
                util::require(req.prefix_id >= 0 &&
                                  req.kv_migrate_tokens == req.prefix_len,
                              "Server: a prefill-phase migration "
                              "imports the request's shared prefix "
                              "(kv_migrate_tokens == prefix_len)");
            } else {
                util::require(req.kv_migrate_tokens <= len,
                              "Server: migrated KV cannot exceed the "
                              "request's context length");
            }
        }
        if (!opts.slo) {
            util::require(req.tenant == 0 && req.deadline_s == 0.0,
                          "Server: tenant/deadline-tagged requests need "
                          "ServerOptions::slo");
        } else {
            util::require(req.tenant >= 0 && req.tenant < opts.tenants,
                          "Server: request tenant must be in "
                          "[0, ServerOptions::tenants)");
            util::require(req.deadline_s >= 0.0,
                          "Server: deadline_s must be >= 0 "
                          "(0 = no deadline)");
            util::require(req.deadline_s == 0.0 ||
                              req.deadline_s >= req.arrival,
                          "Server: a deadline must not precede the "
                          "request's arrival");
        }
    }
}

/**
 * One serve() call of the disaggregated scheduler: the loop that picks
 * every iteration's class, over the three parts that do the work —
 * WaitQueues (queue order, the claim walk, SLO tenancy), KvLedger (KV
 * and prefix residency) and IterationExecutor (the engine, the prefill
 * and decode iterations, preemption, accounting). Data crosses between
 * the parts only as call arguments. Every iteration serves one class:
 * prefill-first (a waiting prompt blocks nothing longer than one
 * iteration and unlocks its decode work), high before normal within a
 * class.
 */
class DisaggRun {
  public:
    DisaggRun(const sim::Machine& machine, const ServerOptions& opts,
              const std::vector<Request>& requests,
              const Server::PrefillProgramSource& prefill_programs,
              const Server::ProgramSource& decode_programs,
              ServingReport& rep)
        : rep_(rep),
          queues_(opts, requests, rep),
          ledger_(machine, opts, requests, rep),
          exec_(machine, opts, requests, prefill_programs, decode_programs,
                queues_, ledger_, rep)
    {
    }

    /// Serves every request to completion into the report.
    void run();

  private:
    ServingReport& rep_;
    WaitQueues queues_;
    KvLedger ledger_;
    IterationExecutor exec_;
};

void
DisaggRun::run()
{
    while (!exec_.done()) {
        queues_.admit(exec_.now());
        if (!exec_.running() && queues_.waiting() == 0) {
            // Idle: wait for the next arrival (queue depth is zero).
            exec_.idle_until(queues_.next_arrival());
            continue;
        }
        if (!queues_.waiting(/*prefill=*/true)) {
            exec_.run_decode_iteration(ClaimMode::kAll);
            continue;
        }
        const bool decode_work =
            exec_.running() || queues_.waiting(/*prefill=*/false);
        if (exec_.take_chunk_yield() && decode_work) {
            // A long prompt sits mid-ingestion: one decode iteration
            // runs between its chunks — the head-of-line win chunking
            // exists for.
            ++rep_.chunk_decode_interleaves;
            exec_.run_decode_iteration(ClaimMode::kAll);
            continue;
        }
        const bool head_fits = exec_.prefill_admissible();
        if (head_fits && exec_.run_prefill_iteration(ClaimMode::kAll)) {
            continue;
        }
        // KV backpressure: the head prompt's segment does not fit next
        // to the resident ones, or the claim deferred on a prompt that
        // does not fit before it took anyone (with slo, the deficit
        // gate can skip a head that fits). A prefill program never runs
        // empty: run decode work instead when there is any (completions
        // free KV); with nothing else to run, force the first claimable
        // prompt through (spilling) so the server always makes
        // progress. A deferral inside the claim has already counted
        // itself.
        if (decode_work) {
            if (!head_fits) {
                ++rep_.deferred_admissions;
            }
            exec_.run_decode_iteration(ClaimMode::kAll);
        } else {
            exec_.run_prefill_iteration(ClaimMode::kAll,
                                        /*force_admit=*/true);
        }
    }
    exec_.finalize();
}

}  // namespace

std::vector<double>
ArrivalTrace::closed_loop(int n)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    return std::vector<double>(n, 0.0);
}

std::vector<double>
ArrivalTrace::poisson(int n, double rate_per_s, uint64_t seed)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    util::check(rate_per_s > 0, "ArrivalTrace: rate must be positive");
    // mt19937_64's raw output is fully specified by the standard;
    // std::exponential_distribution is not. Inverse-CDF by hand keeps
    // the trace bit-identical across standard libraries.
    std::mt19937_64 rng(seed);
    std::vector<double> arrivals;
    arrivals.reserve(n);
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        t += -std::log1p(-u) / rate_per_s;
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<double>
ArrivalTrace::bursty(int n, double rate_per_s, double burst_factor,
                     uint64_t seed)
{
    util::check(n >= 0, "ArrivalTrace: negative request count");
    util::check(rate_per_s > 0, "ArrivalTrace: rate must be positive");
    util::check(burst_factor >= 1.0 && burst_factor < 10.0,
                "ArrivalTrace: burst factor must be in [1, 10)");
    if (burst_factor == 1.0) {
        // Factor 1 collapses both MMPP states to the mean rate; the
        // process IS Poisson, so delegate for an element-by-element
        // equal trace (the state-switch crossings below would split
        // the gap arithmetic and drift the low FP bits otherwise).
        return poisson(n, rate_per_s, seed);
    }
    // Two-state MMPP: a burst state at burst_factor x the mean rate,
    // occupied kBurstFrac of the time, and a calm state scaled down so
    // the long-run rate stays rate_per_s (burst_factor < 1/kBurstFrac
    // keeps the calm rate positive). Each arrival consumes one unit-
    // exponential amount of "work" at the current state's rate;
    // state-holding times draw from their own domain-separated stream
    // so the gap draws never depend on how often the state switches.
    constexpr double kBurstFrac = 0.1;
    const double burst_rate = rate_per_s * burst_factor;
    const double calm_rate = rate_per_s *
                             (1.0 - kBurstFrac * burst_factor) /
                             (1.0 - kBurstFrac);
    // A burst lasts ~10 arrivals at the burst rate; calm holds fill
    // the remaining (1 - kBurstFrac) of the time.
    const double burst_hold = 10.0 / burst_rate;
    const double calm_hold =
        burst_hold * (1.0 - kBurstFrac) / kBurstFrac;
    std::mt19937_64 gap_rng(seed);
    std::mt19937_64 state_rng(seed ^ 0x6275727374737461ull);  // "burststa"
    auto draw = [](std::mt19937_64& rng) {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };
    bool in_burst = false;
    double t = 0.0;
    double t_switch = -std::log1p(-draw(state_rng)) * calm_hold;
    std::vector<double> arrivals;
    arrivals.reserve(n);
    for (int i = 0; i < n; ++i) {
        double work = -std::log1p(-draw(gap_rng));
        for (;;) {
            const double rate = in_burst ? burst_rate : calm_rate;
            const double need = work / rate;
            if (t + need <= t_switch) {
                t += need;
                break;
            }
            work -= (t_switch - t) * rate;
            t = t_switch;
            in_burst = !in_burst;
            t_switch = t + -std::log1p(-draw(state_rng)) *
                               (in_burst ? burst_hold : calm_hold);
        }
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<Request>
decode_requests(const std::vector<double>& arrivals, int decode_tokens)
{
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.phase = Phase::kDecode;
        r.decode_tokens = decode_tokens;
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
prefill_requests(const std::vector<double>& arrivals, int decode_tokens)
{
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.phase = Phase::kPrefill;
        r.decode_tokens = decode_tokens;
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
make_request_trace(const std::vector<double>& arrivals,
                   int decode_tokens, double prefill_frac,
                   double high_frac, uint64_t seed)
{
    util::check(prefill_frac >= 0.0 && prefill_frac <= 1.0,
                "make_request_trace: prefill fraction out of [0,1]");
    util::check(high_frac >= 0.0 && high_frac <= 1.0,
                "make_request_trace: high fraction out of [0,1]");
    std::mt19937_64 rng(seed);
    auto draw = [&rng] {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };
    std::vector<Request> out;
    out.reserve(arrivals.size());
    for (double a : arrivals) {
        Request r;
        r.arrival = a;
        r.decode_tokens = decode_tokens;
        r.phase =
            draw() < prefill_frac ? Phase::kPrefill : Phase::kDecode;
        r.priority =
            draw() < high_frac ? Priority::kHigh : Priority::kNormal;
        out.push_back(r);
    }
    return out;
}

void
tag_prompt_lengths(std::vector<Request>& requests, int max_len,
                   double mean_len, uint64_t seed)
{
    util::check(max_len >= 1,
                "tag_prompt_lengths: max_len must be >= 1");
    util::check(mean_len > 0.0,
                "tag_prompt_lengths: mean_len must be positive");
    // Domain-separate the stream from make_request_trace's: callers
    // naturally pass one trace seed to both, and an unmixed seed
    // would make request k's prompt length a function of the same
    // draw as its phase/priority tag.
    std::mt19937_64 rng(seed ^ 0x70726f6d70747376ull);  // "promptsv"
    for (Request& r : requests) {
        // Inverse-CDF exponential on the raw mt19937_64 output (see
        // ArrivalTrace::poisson): platform-stable, and one draw per
        // request so the sequence is independent of the phase mix.
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        // Clamp in double before the int cast: a large mean can push
        // the draw past INT_MAX, where the cast itself is undefined.
        double draw = std::min(-std::log1p(-u) * mean_len,
                               static_cast<double>(max_len - 1));
        r.prompt_len = 1 + static_cast<int>(std::floor(draw));
    }
}

void
tag_tenants(std::vector<Request>& requests, int tenants, uint64_t seed)
{
    util::check(tenants >= 1, "tag_tenants: tenants must be >= 1");
    if (tenants == 1) {
        // Exact no-op: no draws consumed, so the same seed tags the
        // same trace identically whether or not it passed through a
        // degenerate tenant split (mirrors make_request_trace's 0/1
        // fractions).
        return;
    }
    // Domain-separate the stream from the other taggers' (see
    // tag_prompt_lengths): one uniform draw per request on the raw
    // mt19937_64 output keeps the assignment platform-stable.
    std::mt19937_64 rng(seed ^ 0x74656e616e747376ull);  // "tenantsv"
    for (Request& r : requests) {
        double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        r.tenant = std::min(static_cast<int>(u * tenants), tenants - 1);
    }
}

void
tag_deadlines(std::vector<Request>& requests, double slo_s)
{
    util::check(slo_s > 0.0, "tag_deadlines: slo_s must be positive");
    // Pure arithmetic — no randomness, so the tagging is trivially
    // platform-stable and composes with any arrival process.
    for (Request& r : requests) {
        r.deadline_s = r.arrival + slo_s;
    }
}

std::vector<Request>
make_session_trace(const SessionTraceOptions& o, uint64_t seed)
{
    util::check(o.sessions >= 0,
                "make_session_trace: negative session count");
    util::check(o.rate_per_s >= 0.0,
                "make_session_trace: rate must be >= 0");
    util::check(o.burst_factor >= 1.0 && o.burst_factor < 10.0,
                "make_session_trace: burst_factor must be in [1, 10)");
    util::check(o.mean_turns >= 1.0,
                "make_session_trace: mean_turns must be >= 1");
    util::check(o.think_time_s >= 0.0,
                "make_session_trace: think_time_s must be >= 0");
    util::check(o.decode_tokens >= 1,
                "make_session_trace: decode_tokens must be >= 1");
    util::check(o.max_prompt_len >= 1,
                "make_session_trace: max_prompt_len must be >= 1");
    util::check(o.prompt_mean_len >= 0.0,
                "make_session_trace: prompt_mean_len must be >= 0");
    util::check(o.prefix_population >= 0,
                "make_session_trace: negative prefix population");
    if (o.prefix_population > 0) {
        util::check(o.max_prompt_len >= 2,
                    "make_session_trace: shared prefixes need "
                    "max_prompt_len >= 2 (one residual token must "
                    "always reach prefill)");
        util::check(o.prefix_zipf_s > 0.0,
                    "make_session_trace: prefix_zipf_s must be > 0");
        util::check(o.prefix_mean_len > 0.0,
                    "make_session_trace: prefix_mean_len must be > 0");
    }

    auto draw = [](std::mt19937_64& rng) {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    };

    // Session start times: closed loop, Poisson, or bursty MMPP. The
    // arrival seed is domain-separated from every tagging stream
    // below, mirroring tag_prompt_lengths()'s discipline.
    const uint64_t arrival_seed = seed ^ 0x73657373696f6e73ull;  // "sessions"
    std::vector<double> starts;
    if (o.rate_per_s > 0.0) {
        starts = o.burst_factor > 1.0
                     ? ArrivalTrace::bursty(o.sessions, o.rate_per_s,
                                            o.burst_factor,
                                            arrival_seed)
                     : ArrivalTrace::poisson(o.sessions, o.rate_per_s,
                                             arrival_seed);
    } else {
        starts = ArrivalTrace::closed_loop(o.sessions);
    }

    // Canonical prefix lengths, one geometric draw per population id:
    // in [1, max_prompt_len - 1], so a prefix can never swallow a
    // whole prompt. Clamp in double before the int cast (see
    // tag_prompt_lengths).
    std::mt19937_64 plen_rng(seed ^ 0x7072656669786c65ull);  // "prefixle"
    std::vector<int64_t> prefix_len(o.prefix_population, 0);
    for (int p = 0; p < o.prefix_population; ++p) {
        double u = draw(plen_rng);
        double d = std::min(-std::log1p(-u) * o.prefix_mean_len,
                            static_cast<double>(o.max_prompt_len - 2));
        prefix_len[p] = 1 + static_cast<int64_t>(std::floor(d));
    }
    // Zipf popularity over population ranks: cumulative weights once,
    // one inverse-CDF binary search per session.
    std::vector<double> cum(o.prefix_population, 0.0);
    double total = 0.0;
    for (int p = 0; p < o.prefix_population; ++p) {
        total += std::pow(1.0 / static_cast<double>(p + 1),
                          o.prefix_zipf_s);
        cum[p] = total;
    }

    std::mt19937_64 turn_rng(seed ^ 0x7475726e73647261ull);   // "turnsdra"
    std::mt19937_64 think_rng(seed ^ 0x7468696e6b74696dull);  // "thinktim"
    std::mt19937_64 prompt_rng(seed ^ 0x70726d70746c656eull); // "prmptlen"
    std::mt19937_64 zipf_rng(seed ^ 0x7a6970667072656full);   // "zipfpreo"

    std::vector<Request> out;
    out.reserve(static_cast<size_t>(o.sessions));
    for (int s = 0; s < o.sessions; ++s) {
        // Geometric-tailed turn count (mean_turns == 1 is exact: no
        // draw consumed, like make_request_trace's 0/1 fractions).
        int turns = 1;
        if (o.mean_turns > 1.0) {
            double u = draw(turn_rng);
            double d = std::min(
                -std::log1p(-u) * (o.mean_turns - 1.0), 1000.0);
            turns = 1 + static_cast<int>(std::floor(d));
        }
        // Every turn of a session carries the session's prefix — the
        // follow-up turns are what the prefix cache turns into hits.
        int pid = -1;
        if (o.prefix_population > 0) {
            double u = draw(zipf_rng) * total;
            pid = static_cast<int>(
                std::lower_bound(cum.begin(), cum.end(), u) -
                cum.begin());
            pid = std::min(pid, o.prefix_population - 1);
        }
        double t = starts[s];
        for (int k = 0; k < turns; ++k) {
            if (k > 0 && o.think_time_s > 0.0) {
                t += -std::log1p(-draw(think_rng)) * o.think_time_s;
            }
            Request r;
            r.arrival = t;
            r.phase = Phase::kPrefill;
            r.decode_tokens = o.decode_tokens;
            // The private suffix past the shared prefix (the user's
            // own text); 0 mean = full-length prompts.
            int64_t suffix = o.max_prompt_len;
            if (o.prompt_mean_len > 0.0) {
                double u = draw(prompt_rng);
                double d = std::min(
                    -std::log1p(-u) * o.prompt_mean_len,
                    static_cast<double>(o.max_prompt_len - 1));
                suffix = 1 + static_cast<int64_t>(std::floor(d));
            }
            if (pid >= 0) {
                r.prefix_id = pid;
                r.prefix_len = static_cast<int>(prefix_len[pid]);
                r.prompt_len = static_cast<int>(
                    std::min(prefix_len[pid] + suffix,
                             static_cast<int64_t>(o.max_prompt_len)));
            } else {
                r.prompt_len = static_cast<int>(suffix);
            }
            out.push_back(r);
        }
    }
    // Interleave sessions into one arrival-ordered trace; stable, so
    // equal arrivals keep generation order (deterministic).
    std::stable_sort(out.begin(), out.end(),
                     [](const Request& a, const Request& b) {
                         return a.arrival < b.arrival;
                     });
    return out;
}

void
roll_up_tenant_shares(std::vector<ServingReport::TenantShare>& shares,
                      int& deadline_requests, int& deadline_misses,
                      double& slo_attainment)
{
    auto attainment = [](int carriers, int misses) {
        return carriers > 0 ? static_cast<double>(carriers - misses) /
                                  static_cast<double>(carriers)
                            : 1.0;
    };
    int64_t total_work = 0;
    deadline_requests = 0;
    deadline_misses = 0;
    for (const ServingReport::TenantShare& s : shares) {
        total_work += s.tokens;
        deadline_requests += s.deadline_requests;
        deadline_misses += s.deadline_misses;
    }
    for (ServingReport::TenantShare& s : shares) {
        s.token_share = total_work > 0
                            ? static_cast<double>(s.tokens) /
                                  static_cast<double>(total_work)
                            : 0.0;
        s.attainment = attainment(s.deadline_requests, s.deadline_misses);
    }
    slo_attainment = attainment(deadline_requests, deadline_misses);
}

std::string
tenant_share_lines(const std::vector<ServingReport::TenantShare>& shares)
{
    std::ostringstream out;
    for (const ServingReport::TenantShare& t : shares) {
        out << "\n  tenant " << t.tenant << "     : " << t.requests
            << " requests, " << t.tokens << " tokens ("
            << pct(t.token_share) << " share), attainment "
            << pct(t.attainment) << " (" << t.deadline_misses
            << " missed)";
    }
    return out.str();
}

void
append_tenant_shares(std::string& out,
                     const std::vector<ServingReport::TenantShare>& shares)
{
    append_bits(out, static_cast<int>(shares.size()));
    for (const ServingReport::TenantShare& t : shares) {
        append_bits(out, t.tenant);
        append_bits(out, t.requests);
        append_bits(out, t.tokens);
        append_bits(out, t.token_share);
        append_bits(out, t.deadline_requests);
        append_bits(out, t.deadline_misses);
        append_bits(out, t.attainment);
    }
}

std::string
ServingReport::summary() const
{
    std::ostringstream out;
    out << "served " << requests << " requests / " << tokens
        << " tokens in " << iterations << " iterations ("
        << prefill_iterations << " prefill + " << decode_iterations
        << " decode), makespan " << ms(makespan) << " ms\n"
        << "  latency ms   : p50 " << ms(p50_latency) << "  p95 "
        << ms(p95_latency) << "  p99 " << ms(p99_latency) << "  max "
        << ms(max_latency) << "\n"
        << "  goodput      : " << tokens_per_s << " tokens/s\n"
        << "  queue depth  : mean " << mean_queue_depth << ", peak "
        << peak_queue_depth << "\n"
        << "  utilization  : hbm " << pct(hbm_util) << ", noc "
        << pct(noc_util) << "\n"
        << "  decode preload ms: first " << ms(first_decode_preload)
        << ", steady " << ms(steady_decode_preload) << " ("
        << resident_bytes / 1024 << " KB/core resident, "
        << preloads_skipped << " preloads skipped)\n"
        << "  engine memo  : " << engine_replays << " engine replays";
    if (prefill_iterations > 0) {
        out << "\n  ttft ms      : mean " << ms(mean_ttft) << "  p50 "
            << ms(p50_ttft) << "  p95 " << ms(p95_ttft) << "  max "
            << ms(max_ttft);
        out << "\n  prefill      : " << prompt_tokens
            << " prompt tokens, " << padded_prompt_tokens
            << " padded; buckets";
        for (const PrefillBucket& b : prefill_bucket_iterations) {
            out << " b" << b.batch << "xL" << b.prompt_len << ":"
                << b.iterations;
        }
    }
    if (high_priority_requests > 0) {
        out << "\n  high priority: " << high_priority_requests
            << " requests, p95 " << ms(p95_high_latency) << " ms, "
            << preemptions << " preemptions";
    }
    if (kv_modeled) {
        out << "\n  kv residency : peak " << kv_bytes_peak / 1024
            << " KB/core, mean " << mean_kv_bytes / 1024.0 << " KB; "
            << kv_evictions << " evictions, " << kv_refetches
            << " refetches (" << ms(kv_stall) << " ms stalled), "
            << deferred_admissions << " deferred admissions";
        if (kv_migrations > 0) {
            out << "\n  kv migration : " << kv_migrations
                << " transfers / " << kv_migrated_tokens
                << " tokens in over the interconnect ("
                << ms(kv_migration_stall) << " ms stalled)";
        }
    }
    if (prefix_sharing) {
        out << "\n  prefix cache : " << prefix_hits << " hits / "
            << prefix_hit_tokens << " tokens; "
            << prefill_tokens_saved << " prefill token slots saved; "
            << "peak shared KV " << shared_kv_bytes / 1024
            << " KB/core";
    }
    if (slo) {
        out << "\n  slo          : "
            << (deadline_requests - deadline_misses) << "/"
            << deadline_requests << " deadlines met ("
            << pct(slo_attainment) << " attainment), p99 lateness "
            << ms(p99_lateness) << " ms, max " << ms(max_lateness)
            << " ms; " << deadline_preemptions
            << " deadline preemptions, " << fairness_windows
            << " fairness windows" << tenant_share_lines(tenant_shares);
    }
    if (prefill_chunk > 0) {
        out << "\n  chunked prefill: chunk " << prefill_chunk << ", "
            << chunked_prompts << " chunked prompts / "
            << prefill_chunks << " chunks, "
            << chunk_decode_interleaves << " decode interleaves";
    }
    if (kv_locality) {
        out << "\n  kv locality  : " << kv_locality_skips
            << " spilled claims passed over for resident work";
    }
    return out.str();
}

std::string
ServingReport::serialize_bits() const
{
    std::string out;
    out.reserve(224);
    append_bits(out, requests);
    append_bits(out, iterations);
    append_bits(out, tokens);
    append_bits(out, makespan);
    append_bits(out, mean_latency);
    append_bits(out, p50_latency);
    append_bits(out, p95_latency);
    append_bits(out, p99_latency);
    append_bits(out, max_latency);
    append_bits(out, tokens_per_s);
    append_bits(out, mean_queue_depth);
    append_bits(out, peak_queue_depth);
    append_bits(out, hbm_util);
    append_bits(out, noc_util);
    append_bits(out, peak_sram_per_core);
    append_bits(out, static_cast<uint8_t>(memory_exceeded ? 1 : 0));
    append_bits(out, first_decode_preload);
    append_bits(out, steady_decode_preload);
    append_bits(out, resident_bytes);
    append_bits(out, preloads_skipped);
    append_bits(out, prefill_iterations);
    append_bits(out, decode_iterations);
    append_bits(out, preemptions);
    append_bits(out, mean_ttft);
    append_bits(out, p50_ttft);
    append_bits(out, p95_ttft);
    append_bits(out, max_ttft);
    append_bits(out, high_priority_requests);
    append_bits(out, p95_high_latency);
    append_bits(out, prompt_tokens);
    append_bits(out, padded_prompt_tokens);
    append_bits(out,
                static_cast<int>(prefill_bucket_iterations.size()));
    for (const PrefillBucket& b : prefill_bucket_iterations) {
        append_bits(out, b.batch);
        append_bits(out, b.prompt_len);
        append_bits(out, b.iterations);
    }
    append_bits(out, static_cast<uint8_t>(kv_modeled ? 1 : 0));
    append_bits(out, kv_bytes_peak);
    append_bits(out, mean_kv_bytes);
    append_bits(out, kv_evictions);
    append_bits(out, kv_refetches);
    append_bits(out, kv_stall);
    append_bits(out, deferred_admissions);
    append_bits(out, kv_migrations);
    append_bits(out, kv_migrated_tokens);
    append_bits(out, kv_migration_stall);
    append_bits(out, static_cast<uint8_t>(prefix_sharing ? 1 : 0));
    append_bits(out, prefix_hits);
    append_bits(out, prefix_hit_tokens);
    append_bits(out, prefill_tokens_saved);
    append_bits(out, shared_kv_bytes);
    append_bits(out, static_cast<uint8_t>(slo ? 1 : 0));
    append_bits(out, tenants);
    append_bits(out, deadline_requests);
    append_bits(out, deadline_misses);
    append_bits(out, slo_attainment);
    append_bits(out, p99_lateness);
    append_bits(out, max_lateness);
    append_bits(out, deadline_preemptions);
    append_bits(out, fairness_windows);
    append_tenant_shares(out, tenant_shares);
    append_bits(out, prefill_chunk);
    append_bits(out, chunked_prompts);
    append_bits(out, prefill_chunks);
    append_bits(out, chunk_decode_interleaves);
    append_bits(out, static_cast<uint8_t>(kv_locality ? 1 : 0));
    append_bits(out, kv_locality_skips);
    return out;
}

Server::Server(const sim::Machine& machine, ServerOptions opts)
    : machine_(machine), opts_(std::move(opts))
{
    util::require(opts_.max_batch >= 1, "Server: max_batch must be >= 1");
    util::require(opts_.tokens_per_request >= 1,
                  "Server: tokens_per_request must be >= 1");
    util::require(opts_.max_prefill_batch >= 1,
                  "Server: max_prefill_batch must be >= 1");
    util::require(opts_.max_prompt_len >= 0,
                  "Server: max_prompt_len must be >= 0");
    if (opts_.max_prompt_len >= 1) {
        finalize_prompt_buckets(opts_.prompt_buckets,
                                opts_.max_prompt_len);
    } else {
        util::require(opts_.prompt_buckets.empty(),
                      "Server: prompt buckets need max_prompt_len");
    }
    if (opts_.kv_budget > 0) {
        util::require(opts_.kv_bytes_per_token > 0,
                      "Server: KV modeling needs kv_bytes_per_token "
                      "(see graph::kv_bytes_per_token)");
        util::require(opts_.max_prompt_len >= 1,
                      "Server: KV modeling needs max_prompt_len to "
                      "size per-request KV segments");
    }
    if (opts_.prefix_sharing) {
        util::require(opts_.kv_budget > 0,
                      "Server: prefix sharing needs KV modeling "
                      "(kv_budget > 0) — shared prefix segments live "
                      "in the modeled KV pool");
    }
    util::require(opts_.prefill_chunk >= 0,
                  "Server: prefill_chunk must be >= 0 (0 disables "
                  "chunked prefill)");
    if (opts_.prefill_chunk > 0) {
        util::require((opts_.prefill_chunk &
                       (opts_.prefill_chunk - 1)) == 0,
                      "Server: prefill_chunk must be a power of two "
                      "(the chunk grid quantization)");
        util::require(opts_.max_prompt_len >= 1,
                      "Server: chunked prefill needs max_prompt_len "
                      "(the model sequence length)");
        util::require(opts_.prefill_chunk <= opts_.max_prompt_len,
                      "Server: prefill_chunk must not exceed "
                      "max_prompt_len");
        util::require(opts_.prompt_buckets.size() >= 2,
                      "Server: chunked prefill needs a multi-entry "
                      "prompt bucket ladder (varlen buckets) — with a "
                      "single full-length bucket every chunk would pad "
                      "to the full sequence");
    }
    if (opts_.kv_locality) {
        util::require(opts_.kv_budget > 0,
                      "Server: kv_locality needs KV modeling "
                      "(kv_budget > 0) — residency is what it steers "
                      "by");
    }
    util::require(opts_.tenants >= 1, "Server: tenants must be >= 1");
    util::require(opts_.preempt_budget >= 0,
                  "Server: preempt_budget must be >= 0 (0 disables "
                  "deadline preemption)");
    if (!opts_.slo) {
        util::require(opts_.tenants == 1 && opts_.tenant_shares.empty(),
                      "Server: multi-tenant shares need "
                      "ServerOptions::slo");
    } else {
        util::require(opts_.tenant_shares.empty() ||
                          static_cast<int>(opts_.tenant_shares.size()) ==
                              opts_.tenants,
                      "Server: tenant_shares must be empty (equal "
                      "shares) or carry one weight per tenant");
        for (double w : opts_.tenant_shares) {
            util::require(w > 0.0,
                          "Server: tenant share weights must be "
                          "positive");
        }
    }
}

// NOTE: this loop intentionally does NOT delegate to DisaggRun. It is
// the PR 2 reference implementation, kept verbatim so the bit-identity
// assertion in tests/preempt_test.cc (DisaggRun on a degenerate trace
// == this loop, across all five modes) anchors the disaggregated
// scheduler to an independent baseline. An accounting change must be
// made in both loops — the test enforcing that is the point.
ServingReport
Server::serve(const std::vector<double>& arrivals,
              const ProgramSource& programs) const
{
    // This loop is the KV-free reference; silently skipping KV
    // modeling here would let a caller believe it was applied.
    util::require(opts_.kv_budget == 0,
                  "Server: KV modeling (kv_budget > 0) requires the "
                  "Request-based serve() overload");
    const int n = static_cast<int>(arrivals.size());
    for (int i = 0; i < n; ++i) {
        util::require(arrivals[i] >= 0 &&
                          (i == 0 || arrivals[i] >= arrivals[i - 1]),
                      "Server: arrivals must be sorted and non-negative");
    }

    // The first iteration runs cold (no retention) and measures the
    // working-set peak; the residency budget is then the leftover
    // SRAM slack, so retained weights never contend with the working
    // set and survive whole decode cycles.
    sim::EngineState state(machine_, engine_options(opts_));

    struct Active {
        int req = -1;
        int tokens_left = 0;
    };
    std::vector<Active> running;
    running.reserve(opts_.max_batch);
    std::deque<int> waiting;
    int next_arrival = 0;
    int completed = 0;
    std::vector<double> latencies(n, 0.0);

    ServingReport rep;
    rep.requests = n;
    util::WeightedMean depth_mean;
    util::WeightedMean hbm_mean;
    util::WeightedMean noc_mean;
    double steady_preload_sum = 0.0;
    int steady_iterations = 0;
    double now = 0.0;

    while (completed < n) {
        // Arrivals up to the current clock join the queue.
        while (next_arrival < n && arrivals[next_arrival] <= now) {
            waiting.push_back(next_arrival++);
        }
        if (running.empty() && waiting.empty()) {
            // Idle: wait for the next arrival (queue depth is zero).
            double t_next = arrivals[next_arrival];
            if (t_next > now) {
                depth_mean.add(t_next - now, 0.0);
                state.run_to(t_next);
                now = t_next;
            }
            continue;
        }

        // Iteration-level batching: waiting requests claim free batch
        // slots at the iteration boundary.
        while (!waiting.empty() &&
               static_cast<int>(running.size()) < opts_.max_batch) {
            running.push_back(
                {waiting.front(), opts_.tokens_per_request});
            waiting.pop_front();
        }
        rep.peak_queue_depth = std::max(
            rep.peak_queue_depth, static_cast<int>(waiting.size()));

        int bucket = batch_bucket(static_cast<int>(running.size()),
                                  opts_.max_batch);
        std::shared_ptr<const sim::SimProgram> program = programs(bucket);
        util::check(program != nullptr,
                    "Server: ProgramSource returned no program");

        // One decode iteration for the whole running batch.
        double start = now;
        state.begin(*program);
        while (state.step()) {
        }
        sim::SimResult r = state.finish();
        now = state.now();
        double duration = now - start;

        ++rep.iterations;
        if (rep.iterations == 1) {
            rep.first_decode_preload = r.preload_only;
            if (opts_.keep_resident) {
                uint64_t usable =
                    machine_.config().usable_sram_per_core();
                state.set_residency_budget(
                    usable > r.peak_sram_per_core
                        ? usable - r.peak_sram_per_core
                        : 0);
            }
        } else {
            steady_preload_sum += r.preload_only;
            ++steady_iterations;
        }
        hbm_mean.add(duration, r.hbm_util);
        noc_mean.add(duration, r.noc_util);
        depth_mean.add(duration, static_cast<double>(waiting.size()));
        rep.peak_sram_per_core =
            std::max(rep.peak_sram_per_core, r.peak_sram_per_core);
        rep.memory_exceeded |= r.memory_exceeded;
        rep.tokens += static_cast<int64_t>(running.size());

        // Every running request produced one token this iteration.
        for (auto it = running.begin(); it != running.end();) {
            if (--it->tokens_left == 0) {
                latencies[it->req] = now - arrivals[it->req];
                ++completed;
                it = running.erase(it);
            } else {
                ++it;
            }
        }
    }

    rep.makespan = now;
    rep.tokens_per_s = now > 0 ? static_cast<double>(rep.tokens) / now
                               : 0.0;
    rep.mean_queue_depth = depth_mean.value();
    rep.hbm_util = hbm_mean.value();
    rep.noc_util = noc_mean.value();
    rep.steady_decode_preload =
        steady_iterations > 0 ? steady_preload_sum / steady_iterations
                              : rep.first_decode_preload;
    if (n > 0) {
        // Mean first (arrival-order summation), then sort once for
        // every percentile — mirrored from IterationExecutor::finalize().
        rep.mean_latency = util::mean(latencies);
        std::sort(latencies.begin(), latencies.end());
        rep.p50_latency = util::percentile_sorted(latencies, 50.0);
        rep.p95_latency = util::percentile_sorted(latencies, 95.0);
        rep.p99_latency = util::percentile_sorted(latencies, 99.0);
        rep.max_latency = latencies.back();
    }
    rep.resident_bytes = state.resident_bytes();
    rep.preloads_skipped = state.resident_hits();
    rep.decode_iterations = rep.iterations;
    return rep;
}

ServingReport
Server::serve(const std::vector<Request>& requests,
              const PrefillProgramSource& prefill_programs,
              const ProgramSource& decode_programs) const
{
    check_requests(opts_, requests);
    ServingReport rep;
    DisaggRun(machine_, opts_, requests, prefill_programs, decode_programs,
              rep)
        .run();
    return rep;
}

}  // namespace elk::runtime
