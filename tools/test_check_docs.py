"""Tests of check_docs.py's binary-name rule.

    python3 tools/test_check_docs.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_docs  # noqa: E402


def errors_for(text):
    """The doc_binaries() errors for a markdown file holding @p text."""
    with tempfile.NamedTemporaryFile("w", suffix=".md",
                                     delete=False) as f:
        f.write(text)
    try:
        errors = []
        check_docs.doc_binaries(f.name, {"bench_perf": "bench/x.cc"},
                                errors)
        return errors
    finally:
        os.unlink(f.name)


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


if __name__ == "__main__":
    unittest.main()
