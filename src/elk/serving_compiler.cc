#include "elk/serving_compiler.h"

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "graph/model_builder.h"
#include "runtime/executor.h"
#include "util/logging.h"

namespace elk::compiler {

namespace {

/// ceil(log2(v)) for v >= 1: the power-of-two band index of a prompt
/// length, and with it the prefill sub-namespace of that bucket.
int
ceil_log2(int v)
{
    int n = 0;
    while ((1 << n) < v) {
        ++n;
    }
    return n;
}

}  // namespace

ServingCompiler::ServingCompiler(graph::ModelConfig model, int seq,
                                 const hw::ChipConfig& cfg,
                                 CompileOptions opts, PlanCache* cache,
                                 int jobs, Options serving_opts)
    : model_(std::move(model)),
      seq_(seq),
      cfg_(cfg),
      opts_(std::move(opts)),
      cache_(cache),
      jobs_(jobs),
      serving_opts_(serving_opts),
      compile_machine_(std::make_shared<const sim::Machine>(cfg_)),
      machine_(opts_.mode == Mode::kIdeal
                   ? std::make_shared<const sim::Machine>(cfg_, true)
                   : compile_machine_)
{
    util::check(seq_ >= 1, "ServingCompiler: seq must be >= 1");
}

std::shared_ptr<const sim::SimProgram>
ServingCompiler::program(int batch)
{
    return program(batch, seq_);
}

std::shared_ptr<const sim::SimProgram>
ServingCompiler::program(int batch, int prompt_len)
{
    util::check(batch >= 1, "ServingCompiler: batch must be >= 1");
    util::check(prompt_len >= 1 && prompt_len <= seq_,
                "ServingCompiler: prompt_len must be in [1, seq]");
    util::check(serving_opts_.kind == GraphKind::kPrefill ||
                    prompt_len == seq_,
                "ServingCompiler: decode programs are compiled at the "
                "model sequence length only");
    const std::pair<int, int> key(batch, prompt_len);
    {
        // Warm-grid fast path: the per-iteration lookup shares the
        // lock with every other server thread.
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            return it->second;
        }
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Double-check: another thread may have compiled the bucket
    // between the two locks.
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        return it->second;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const graph::Graph graph =
        serving_opts_.kind == GraphKind::kPrefill
            ? graph::build_forward_graph(model_, batch, prompt_len)
            : graph::build_decode_graph(model_, batch, seq_);
    // A cache hit is the finished program: the key's graph name and
    // seq fix the op-id namespace below, so no Compiler is built.
    PlanKey plan_key;
    std::shared_ptr<const sim::SimProgram> program;
    if (cache_ != nullptr) {
        plan_key = make_plan_key(graph, cfg_, opts_);
        program = cache_->lookup(plan_key);
    }
    if (!program) {
        Compiler compiler(graph, cfg_, nullptr, jobs_, compile_machine_);
        sim::SimProgram lowered = runtime::lower_to_sim(
            graph, compiler.compile(opts_).plan, compiler.context());
        // Prefill programs get the family offset plus a per-band
        // sub-namespace per length bucket (see kPrefillIdOffset).
        int offset = 0;
        if (serving_opts_.kind == GraphKind::kPrefill) {
            offset = (1 + ceil_log2(prompt_len)) * kPrefillIdOffset;
            util::check(graph.size() < kPrefillIdOffset,
                        "ServingCompiler: graph too large for the "
                        "prefill id namespace scheme");
        }
        for (sim::SimOp& op : lowered.ops) {
            op.op_id += offset;
        }
        program =
            std::make_shared<const sim::SimProgram>(std::move(lowered));
        if (cache_ != nullptr) {
            cache_->insert(plan_key, program);
        }
    }
    entries_.emplace(key, program);
    compile_seconds_ += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return program;
}

double
ServingCompiler::compile_seconds() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return compile_seconds_;
}

}  // namespace elk::compiler
