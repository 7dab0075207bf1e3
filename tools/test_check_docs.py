"""Tests of check_docs.py's binary-name, flag, option-member, symbol
and elkc-usage rules.

    python3 tools/test_check_docs.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_docs  # noqa: E402


def run_check(check, text):
    """The errors @p check(path, errors) reports for a markdown file
    holding @p text."""
    with tempfile.NamedTemporaryFile("w", suffix=".md",
                                     delete=False) as f:
        f.write(text)
    try:
        errors = []
        check(f.name, errors)
        return errors
    finally:
        os.unlink(f.name)


def errors_for(text):
    """The doc_binaries() errors for a markdown file holding @p text."""
    return run_check(
        lambda path, errors: check_docs.doc_binaries(
            path, {"bench_perf": "bench/x.cc"}, errors),
        text)


def flag_errors_for(text):
    """The check_flags() errors against every driver's parsed flags."""
    flags = check_docs.known_flags()
    return run_check(
        lambda path, errors: check_docs.check_flags(path, flags, errors),
        text)


def member_errors_for(text):
    """The check_option_members() errors against the real headers."""
    bodies = check_docs.header_structs()
    return run_check(
        lambda path, errors: check_docs.check_option_members(
            path, bodies, errors),
        text)


def symbol_errors_for(text):
    """The check_symbol_members() errors against src/'s classes."""
    classes = check_docs.src_classes()
    return run_check(
        lambda path, errors: check_docs.check_symbol_members(
            path, classes, errors),
        text)


class BinaryNameTest(unittest.TestCase):
    def test_dot_directory_is_not_a_binary(self):
        self.assertEqual(errors_for("cmake -B .bench_build -S perfbench\n"
                                    "ls .bench_build/perfbench_run\n"), [])

    def test_unknown_bench_name_errors(self):
        self.assertEqual(len(errors_for("run bench_nope\n")), 1)

    def test_relative_path_to_unknown_bench_errors(self):
        self.assertEqual(len(errors_for("run ./bench_nope\n")), 1)

    def test_known_bench_name_passes(self):
        self.assertEqual(errors_for("run ./bench_perf --jobs 1\n"), [])


class FlagTest(unittest.TestCase):
    def test_driver_and_perfbench_flags_pass(self):
        self.assertEqual(flag_errors_for(
            "`elkc serve --kv-budget`, `bench_fig16_compile_time --jobs`, "
            "`perfbench/run.py --workload steady_mixed --seconds 20 "
            "--trace`\n"), [])

    def test_unparsed_flag_errors(self):
        errors = flag_errors_for("run `perfbench/run.py --nope`\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("perfbench/*.{cc,py}", errors[0])


class OptionMemberTest(unittest.TestCase):
    def test_declared_members_pass(self):
        self.assertEqual(member_errors_for(
            "`ServerOptions::max_batch`, `CompileOptions::max_orders` "
            "and `ServingCompiler::Options::kind`\n"), [])

    def test_unknown_member_errors(self):
        self.assertEqual(len(member_errors_for(
            "set `ServerOptions::nope`\n")), 1)

    def test_commented_out_member_is_not_declared(self):
        bodies = check_docs.struct_bodies(
            "struct ServerOptions {\n"
            "    // int nope = 0;\n"
            "    int max_batch = 32;\n"
            "};\n")
        self.assertIn("max_batch", bodies["ServerOptions"])
        self.assertNotIn("nope", bodies["ServerOptions"])


class SymbolMemberTest(unittest.TestCase):
    def test_declared_members_pass(self):
        self.assertEqual(symbol_errors_for(
            "`IterationExecutor::execute`, `Server::serve(arrivals)`, "
            "`runtime::ServingReport::serialize_bits()` and "
            "`WaitQueues::claim()`\n"), [])

    def test_member_of_another_class_errors(self):
        # execute() lives on IterationExecutor, not on the loop.
        self.assertEqual(len(symbol_errors_for(
            "the executor (`DisaggRun::execute`)\n")), 1)

    def test_classes_outside_src_runtime_are_checked(self):
        self.assertEqual(symbol_errors_for(
            "`Compiler::compile()`, `compiler::PlanCache::keys()` and "
            "`sim::EngineState::begin_memo`\n"), [])
        # The Compiler holds no plan cache.
        self.assertEqual(len(symbol_errors_for(
            "`Compiler::attach_plan_cache()` attaches one\n")), 1)

    def test_name_declared_twice_is_skipped(self):
        # EngineState::Options and cost's Options share the short name.
        self.assertEqual(symbol_errors_for(
            "`ServingCompiler::Options::kind`, `Options::nope`\n"), [])

    def test_only_backticked_known_classes_are_checked(self):
        self.assertEqual(symbol_errors_for(
            "DisaggRun::execute outside backticks, "
            "`Nowhere::nope` naming no class under src/\n"), [])

    def test_enum_class_is_not_a_class(self):
        bodies = dict(check_docs.class_bodies(
            "enum class Phase { kPrefill };\n"
            "struct Request {\n"
            "    // int nope = 0;\n"
            "    Phase phase;\n"
            "};\n"))
        self.assertEqual(set(bodies), {"Request"})
        self.assertNotIn("nope", bodies["Request"])


def usage_errors_for(src_text):
    """The check_usage() errors for a driver source holding @p src_text."""
    errors = []
    check_docs.check_usage("elkc.cc", src_text, errors)
    return errors


# A driver whose help names --model and --jobs; the parser below it
# is filled in per test.
USAGE_SRC = """
void
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\\n"
        "  --model NAME      built-in preset\\n"
        "  --jobs N          worker threads (--model as above)\\n",
        argv0);
}
"""


class UsageTest(unittest.TestCase):
    def test_real_elkc_usage_matches_its_parser(self):
        path = os.path.join(check_docs.REPO, "tools", "elkc.cc")
        with open(path, encoding="utf-8") as f:
            self.assertEqual(usage_errors_for(f.read()), [])

    def test_matching_help_and_parser_pass(self):
        self.assertEqual(usage_errors_for(
            USAGE_SRC + 'if (arg("--model")) {}\n'
            'if (std::strcmp(argv[i], "--jobs") == 0) {}\n'), [])

    def test_usage_line_naming_unparsed_flag_errors(self):
        errors = usage_errors_for(USAGE_SRC + 'if (arg("--model")) {}\n')
        self.assertEqual(len(errors), 1)
        self.assertIn("'--jobs'", errors[0])

    def test_parsed_flag_missing_from_usage_errors(self):
        errors = usage_errors_for(
            USAGE_SRC + 'if (arg("--model")) {}\n'
            'if (arg("--jobs")) {}\n'
            'if (arg("--verbose")) {}\n')
        self.assertEqual(len(errors), 1)
        self.assertIn("'--verbose'", errors[0])


if __name__ == "__main__":
    unittest.main()
