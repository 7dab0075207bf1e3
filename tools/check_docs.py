#!/usr/bin/env python3
"""Documentation consistency checker (stdlib only; CI `docs` job).

Eight classes of rot this catches:

 1. Relative markdown links whose target file no longer exists
    (`[text](docs/SERVING.md)`, `[x](../README.md#anchor)`), in every
    tracked *.md file of the repo.
 2. Binary names the docs refer to (`bench_*`, `elkc`, and the
    example programs) whose source file is gone — every such name
    must correspond to a real target: bench/<name>.cc,
    tools/<name>.cc, or examples/<name>.cc. CMake globs those
    directories, so source existence is target existence; the CI job
    additionally builds the listed names (`--list-binaries`) to prove
    they compile. A bench_* token right after a '.' names a
    dot-directory (.bench_build/), not a binary.
 3. Command-line flags the user docs name (`--kv-budget`, `--jobs`,
    `--workload`, ...) that no driver actually parses: every `--flag`
    token in README.md, ROADMAP.md, and docs/*.md must appear as a
    string literal in tools/*.{cc,py}, bench/*.{cc,h}, examples/*.cc,
    or perfbench/*.{cc,py} (the benchmark driver, which this script
    only reads), except for a small allowlist of external tools' flags
    (ctest, cmake, google-benchmark). This is what stops the docs from
    drifting when a driver renames a flag.
 4. TODO/FIXME markers inside docs/*.md — user docs must not ship
    construction debris.
 5. Report-column rot: the `ServingReport` / `ClusterReport` field
    tables in docs/SERVING.md, docs/CLUSTER.md, and docs/TENANCY.md
    name every field in their first cell (backticked, slash-compressed
    forms like `mean/p50/p95/p99/max_latency` allowed). Each expanded
    field name must appear as a whole word in src/runtime/*.cc — the
    summary()/serialize_bits() implementations — so renaming or
    dropping a report field without updating the docs fails CI.
 6. Option-member rot: every `ServerOptions::x`, `ClusterOptions::x`,
    `CompileOptions::x`, `SessionTraceOptions::x` or
    `ServingCompiler::Options::x` reference in README.md and
    docs/*.md must name a member declared (outside comments) in that
    struct's body in src/**/*.h — so retiring a knob without updating
    the docs fails CI.
 7. Stale symbol references: a backticked `Name::member` (the last
    two components of a `::` chain) in README.md or docs/*.md, where
    `Name` is a class or struct declared in src/**/*.{h,cc}, must name
    a member declared (outside comments) in its body — so moving or
    deleting a method without updating the docs fails CI. Option
    structs are left to rule 6, and a name declared more than once
    (two structs called `Options`) is skipped: the short name does
    not say which body is meant.
 8. elkc help rot: every `--flag` in tools/elkc.cc's usage() help
    text must be a flag elkc parses (an `arg("--x")` or
    `strcmp(argv[i], "--x")` literal), and every flag it parses must
    appear in usage() — so adding, renaming or retiring an elkc flag
    without updating its help fails CI.

Usage:
    tools/check_docs.py              # check, exit 1 on any failure
    tools/check_docs.py --list-binaries   # print doc-named binaries
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images and absolute URLs; target may
# carry a #fragment.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
# Binary-ish tokens: bench_* always; other names are checked against
# the known binary stems (so prose words never false-positive).
TOKEN_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
# A documented command-line flag: --word(-word)*, not part of a
# longer run of dashes (markdown rules / table borders).
DOC_FLAG_RE = re.compile(r"(?<![-\w])--[a-z][a-z0-9_-]*")
# A flag string literal in driver source (same charset as
# DOC_FLAG_RE, or an underscore-flag could never resolve).
SRC_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9_-]*)"')
# Flags of tools the docs legitimately invoke but this repo does not
# parse itself.
EXTERNAL_FLAGS = {
    "--output-on-failure",  # ctest
    "--build",              # cmake
    "--target",             # cmake
    "--benchmark_filter",   # google-benchmark (bench_micro)
    "--list-binaries",      # this script
}
# Root-level docs whose --flag mentions are checked next to docs/*.md
# (user docs; PAPERS/SNIPPETS are reference dumps of external material
# and ISSUE/CHANGES are process logs).
FLAG_CHECKED_DOCS = ("README.md", "ROADMAP.md")
MARKER_RE = re.compile(r"\b(TODO|FIXME)\b")
# Docs whose markdown tables document report fields in their first
# cell; every backticked identifier there must resolve to a field
# used by src/runtime/*.cc.
REPORT_TABLE_DOCS = ("SERVING.md", "CLUSTER.md", "TENANCY.md")
FIELD_RE = re.compile(r"`([A-Za-z][A-Za-z0-9_/]*)`")
# Option structs whose members the docs name, keyed by the spelling
# the docs use; the value is the struct name declared in src/**/*.h
# (ServingCompiler::Options aliases a namespace-scope struct).
OPTION_STRUCTS = {
    "ServerOptions": "ServerOptions",
    "ClusterOptions": "ClusterOptions",
    "CompileOptions": "CompileOptions",
    "SessionTraceOptions": "SessionTraceOptions",
    "ServingCompiler::Options": "ServingCompilerOptions",
}
OPTION_REF_RE = re.compile(
    r"\b(%s)::([A-Za-z_][A-Za-z0-9_]*)"
    % "|".join(re.escape(k) for k in
               sorted(OPTION_STRUCTS, key=len, reverse=True))
)
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
# Rule 7: backtick spans, and the last `Owner::member` pair of a
# `a::b::c` chain inside one.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
SYMBOL_REF_RE = re.compile(r"\b(?:\w+::)*([A-Za-z_]\w*)::([A-Za-z_]\w*)")
CLASS_DECL_RE = re.compile(r"(?<!enum )\b(?:class|struct)\s+(\w+)[^;{()]*\{")
# Rule 8: elkc's usage() body, the string literals in it, and the
# flags its parsers match.
USAGE_DEF_RE = re.compile(r"\busage\(const char\* \w+\)\s*\{")
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
PARSED_FLAG_RE = re.compile(
    r'(?:\barg\(|strcmp\(argv\[i\],\s*)"(--[a-z][a-z0-9_-]*)"')


def markdown_files():
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d
            for d in dirs
            if not d.startswith(".") and not d.startswith("build")
        ]
        for name in files:
            if name.endswith(".md"):
                out.append(os.path.join(root, name))
    return sorted(out)


def known_binaries():
    """Stem -> source path for every buildable driver."""
    stems = {}
    for sub in ("bench", "tools", "examples"):
        directory = os.path.join(REPO, sub)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if name.endswith(".cc"):
                stems[name[: -len(".cc")]] = os.path.join(sub, name)
    return stems


def known_flags():
    """Every --flag string literal a driver parses."""
    flags = set()
    sources = []
    for sub, exts in (
        ("tools", (".cc", ".py")),
        ("bench", (".cc", ".h")),
        ("examples", (".cc",)),
        ("perfbench", (".cc", ".py")),
    ):
        directory = os.path.join(REPO, sub)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if name.endswith(exts):
                sources.append(os.path.join(directory, name))
    for src in sources:
        with open(src, encoding="utf-8") as f:
            flags |= set(SRC_FLAG_RE.findall(f.read()))
    return flags


def runtime_source():
    """Concatenated src/runtime/*.cc — where every report field is
    consumed by summary()/serialize_bits()."""
    texts = []
    directory = os.path.join(REPO, "src", "runtime")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cc"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as f:
                texts.append(f.read())
    return "\n".join(texts)


def expand_field(token):
    """'mean/p50/p95/p99/max_latency' -> its five field names; a
    token without '/' is already a field name."""
    if "/" not in token:
        return [token]
    parts = token.split("/")
    last = parts[-1]
    if "_" not in last:
        return parts
    _, suffix = last.split("_", 1)
    return [p + "_" + suffix for p in parts[:-1]] + [last]


def check_report_fields(md_path, runtime_src, errors):
    """Every backticked identifier in a markdown table row's first
    cell must appear (whole-word) in src/runtime/*.cc."""
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.lstrip()
            if not stripped.startswith("|"):
                continue
            cells = stripped.split("|")
            if len(cells) < 3:
                continue
            for token in FIELD_RE.findall(cells[1]):
                for field in expand_field(token):
                    if re.search(r"\b%s\b" % re.escape(field),
                                 runtime_src):
                        continue
                    errors.append(
                        f"{rel}:{lineno}: documents report column "
                        f"'{field}' but src/runtime/*.cc never "
                        "mentions it"
                    )


def body_after(text, start):
    """The text of the brace-balanced body opening just before
    @p start."""
    depth, i = 1, start
    while depth and i < len(text):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start : i - 1]


def struct_bodies(src_text):
    """Declared struct name -> its body with comments stripped, for
    every OPTION_STRUCTS target found in @p src_text."""
    text = COMMENT_RE.sub("", src_text)
    bodies = {}
    for name in OPTION_STRUCTS.values():
        match = re.search(r"\bstruct\s+%s\s*\{" % name, text)
        if match:
            bodies[name] = body_after(text, match.end())
    return bodies


def class_bodies(src_text):
    """(name, body with comments stripped) of every class or struct
    (not enum class) defined in @p src_text, in order."""
    text = COMMENT_RE.sub("", src_text)
    return [(m.group(1), body_after(text, m.end()))
            for m in CLASS_DECL_RE.finditer(text)]


def source_texts(exts):
    """The text of every src/**/* file ending in one of @p exts."""
    for root, _, files in sorted(os.walk(os.path.join(REPO, "src"))):
        for name in sorted(files):
            if name.endswith(exts):
                with open(os.path.join(root, name),
                          encoding="utf-8") as f:
                    yield f.read()


def src_classes():
    """Class/struct name -> body over every src/**/*.{h,cc}, leaving
    out names declared more than once."""
    bodies, repeated = {}, set()
    for text in source_texts((".h", ".cc")):
        for name, body in class_bodies(text):
            if name in bodies:
                repeated.add(name)
            bodies[name] = body
    return {k: v for k, v in bodies.items() if k not in repeated}


def header_structs():
    """struct_bodies() over every src/**/*.h."""
    bodies = {}
    for text in source_texts((".h",)):
        bodies.update(struct_bodies(text))
    return bodies


def check_option_members(md_path, bodies, errors):
    """Every Struct::member reference must name a declared member."""
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for owner, member in OPTION_REF_RE.findall(line):
                body = bodies.get(OPTION_STRUCTS[owner], "")
                if re.search(r"\b%s\b" % re.escape(member), body):
                    continue
                errors.append(
                    f"{rel}:{lineno}: names '{owner}::{member}' but "
                    "src/**/*.h declares no such member"
                )


def check_symbol_members(md_path, classes, errors):
    """Every backticked Class::member, Class a class in @p classes,
    must name a member that class declares."""
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for span in CODE_SPAN_RE.findall(line):
                for owner, member in SYMBOL_REF_RE.findall(span):
                    if owner not in classes or owner in OPTION_STRUCTS:
                        continue
                    if re.search(r"\b%s\b" % re.escape(member),
                                 classes[owner]):
                        continue
                    errors.append(
                        f"{rel}:{lineno}: names '{owner}::{member}' but "
                        f"{owner} in src/ declares no such member"
                    )


def check_usage(rel, src_text, errors):
    """Rule 8 on a driver's source: the flags its usage() help names
    and the flags it parses must be the same set."""
    match = USAGE_DEF_RE.search(src_text)
    if not match:
        errors.append(f"{rel}: no usage() definition found")
        return
    body = body_after(src_text, match.end())
    helped = set(DOC_FLAG_RE.findall(
        "".join(STRING_LITERAL_RE.findall(body))))
    parsed = set(PARSED_FLAG_RE.findall(src_text))
    for flag in sorted(helped - parsed):
        errors.append(f"{rel}: usage() names flag '{flag}' but no "
                      "parser matches it")
    for flag in sorted(parsed - helped):
        errors.append(f"{rel}: parses flag '{flag}' but usage() never "
                      "names it")


def flag_checked(md_path):
    """User docs whose --flag mentions must resolve to parsed flags."""
    rel = os.path.relpath(md_path, REPO)
    return rel in FLAG_CHECKED_DOCS or rel.startswith("docs" + os.sep)


def check_flags(md_path, flags, errors):
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    rel = os.path.relpath(md_path, REPO)
    for flag in sorted(set(DOC_FLAG_RE.findall(text))):
        if flag in flags or flag in EXTERNAL_FLAGS:
            continue
        errors.append(
            f"{rel}: names flag '{flag}' but no driver "
            "(tools/*.{cc,py}, bench/*.{cc,h}, examples/*.cc, "
            "perfbench/*.{cc,py}) parses it"
        )


def check_markers(md_path, errors):
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            match = MARKER_RE.search(line)
            if match:
                errors.append(
                    f"{rel}:{lineno}: contains a {match.group(0)} marker"
                )


def check_links(md_path, errors):
    base = os.path.dirname(md_path)
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if re.match(r"^[a-z]+:", target) or target.startswith("#"):
            continue  # URL or in-page anchor
        path = target.split("#", 1)[0]
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            rel = os.path.relpath(md_path, REPO)
            errors.append(f"{rel}: broken link -> {target}")


def doc_binaries(md_path, binaries, errors):
    """Names of binaries this doc mentions; bench_* must resolve."""
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    named = set()
    for match in TOKEN_RE.finditer(text):
        token = match.group(0)
        before = text[match.start() - 1 : match.start()]
        after = text[match.end() : match.end() + 1]
        if after == "*" or token.endswith("_"):
            continue  # a glob like bench_* / bench_fig*, not a name
        if token in binaries:
            named.add(token)
        elif token.startswith("bench_") and before != ".":
            # (after a '.' it is a dot-directory like .bench_build/)
            rel = os.path.relpath(md_path, REPO)
            errors.append(
                f"{rel}: names '{token}' but bench/{token}.cc "
                "does not exist"
            )
    return named


def main():
    list_only = "--list-binaries" in sys.argv[1:]
    binaries = known_binaries()
    flags = known_flags()
    runtime_src = runtime_source()
    bodies = header_structs()
    classes = src_classes()
    errors = []
    named = set()
    for md in markdown_files():
        check_links(md, errors)
        # ISSUE.md / CHANGES.md are PR-process logs with free-form
        # shorthand, not user docs; their links are still checked.
        if os.path.basename(md) in ("ISSUE.md", "CHANGES.md"):
            continue
        named |= doc_binaries(md, binaries, errors)
        if flag_checked(md):
            check_flags(md, flags, errors)
        rel = os.path.relpath(md, REPO)
        if rel == "README.md" or rel.startswith("docs" + os.sep):
            check_option_members(md, bodies, errors)
            check_symbol_members(md, classes, errors)
        if rel.startswith("docs" + os.sep):
            check_markers(md, errors)
            if os.path.basename(md) in REPORT_TABLE_DOCS:
                check_report_fields(md, runtime_src, errors)
    elkc = os.path.join("tools", "elkc.cc")
    with open(os.path.join(REPO, elkc), encoding="utf-8") as f:
        check_usage(elkc, f.read(), errors)

    if list_only:
        print(" ".join(sorted(named)))
        return 0 if not errors else 1

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    checked = len(markdown_files())
    if errors:
        print(f"{len(errors)} doc problem(s) in {checked} files",
              file=sys.stderr)
        return 1
    print(f"docs ok: {checked} markdown files, "
          f"{len(named)} binaries referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
