/**
 * @file
 * Unit tests for the EGF graph serialization frontend and the trace
 * export helpers.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "frontend/graph_io.h"
#include "graph/model_builder.h"
#include "runtime/trace_export.h"
#include "test_helpers.h"

namespace elk::frontend {
namespace {

TEST(GraphIoTest, RoundTripPreservesEverything)
{
    graph::Graph original =
        graph::build_decode_graph(testing::tiny_llm_gqa(), 4, 256);
    graph::Graph copy = from_egf(to_egf(original));

    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.name(), original.name());
    EXPECT_EQ(copy.num_layers(), original.num_layers());
    for (int i = 0; i < original.size(); ++i) {
        const auto& a = original.op(i);
        const auto& b = copy.op(i);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.layer, b.layer);
        EXPECT_EQ(a.batch, b.batch);
        EXPECT_EQ(a.m, b.m);
        EXPECT_EQ(a.n, b.n);
        EXPECT_EQ(a.k, b.k);
        EXPECT_EQ(a.w_share_rows, b.w_share_rows);
        EXPECT_EQ(a.param_bytes, b.param_bytes);
        EXPECT_EQ(a.stream_bytes, b.stream_bytes);
        EXPECT_EQ(a.act_in_bytes, b.act_in_bytes);
        EXPECT_EQ(a.act_out_bytes, b.act_out_bytes);
        EXPECT_DOUBLE_EQ(a.flops, b.flops);
    }
}

TEST(GraphIoTest, FileRoundTrip)
{
    graph::Graph original =
        graph::build_decode_graph(testing::tiny_llm(), 2, 128);
    std::string path =
        (std::filesystem::temp_directory_path() / "elk_io_test.egf")
            .string();
    save_graph(original, path);
    graph::Graph copy = load_graph(path);
    EXPECT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.total_hbm_bytes(), original.total_hbm_bytes());
    std::remove(path.c_str());
}

TEST(GraphIoTest, OpsDifferingOnlyInActOutBytesGetTheirOwnFronts)
{
    // Two loaded MatMuls that differ only in act_out_bytes. On a
    // multi-chip config the output crosses chips, so every plan's
    // exec_time includes act_out_bytes / inter_chip_bw, and one shared
    // front would price the second op with the first op's output.
    graph::Graph g = from_egf(
        "elk-graph-v1 m\n"
        "op small MatMul 0 1 32 512 512 2 0 524288 0 32768 32768\n"
        "op large MatMul 0 1 32 512 512 2 0 524288 0 32768 131072\n");
    hw::ChipConfig chip = testing::tiny_chip();
    chip.num_chips = 4;
    testing::CompilerHarness h(std::move(g), chip);
    EXPECT_NE(h.library->exec_plans(0)[0].exec_time,
              h.library->exec_plans(1)[0].exec_time);
    EXPECT_EQ(h.library->num_signatures(), 2);
}

TEST(GraphIoDeathTest, RejectsBadMagic)
{
    EXPECT_DEATH(from_egf("not-a-graph foo"), "bad magic");
}

TEST(GraphIoDeathTest, RejectsUnknownKind)
{
    EXPECT_DEATH(
        from_egf("elk-graph-v1 m\nop x Conv2D 0 1 1 1 1 2 0 0 0 0 0\n"),
        "unknown kind");
}

TEST(GraphIoDeathTest, RejectsTruncatedOp)
{
    EXPECT_DEATH(from_egf("elk-graph-v1 m\nop x MatMul 0 1\n"),
                 "truncated");
}

TEST(TraceExportTest, TimingCsvHasAllOps)
{
    auto h = testing::CompilerHarness::tiny();
    sim::SimResult result;
    result.total_time = 1.0;
    for (int i = 0; i < 3; ++i) {
        sim::OpTiming t;
        t.op_id = i;
        t.pre_start = i * 0.1;
        t.pre_end = i * 0.1 + 0.05;
        t.exec_start = i * 0.3;
        t.exec_end = i * 0.3 + 0.2;
        result.timing.push_back(t);
    }
    std::string csv = runtime::timing_csv(h.graph, result);
    // Header + 3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
    EXPECT_NE(csv.find("attn_norm"), std::string::npos);
}

TEST(TraceExportTest, TimelineSummaryRenders)
{
    auto h = testing::CompilerHarness::tiny();
    sim::SimResult result;
    result.total_time = 1.0;
    sim::OpTiming t;
    t.op_id = 0;
    t.pre_start = 0.0;
    t.pre_end = 0.4;
    t.exec_start = 0.3;
    t.exec_end = 1.0;
    result.timing.push_back(t);
    std::string text = runtime::timeline_summary(h.graph, result);
    EXPECT_NE(text.find('p'), std::string::npos);
    EXPECT_NE(text.find('X'), std::string::npos);
    EXPECT_NE(text.find('#'), std::string::npos);  // overlap region
}

TEST(TraceExportTest, EmptyTimeline)
{
    auto h = testing::CompilerHarness::tiny();
    sim::SimResult result;
    EXPECT_EQ(runtime::timeline_summary(h.graph, result),
              "(empty timeline)\n");
}

}  // namespace
}  // namespace elk::frontend
