#!/usr/bin/env python3
"""Docs-hygiene gate: fail when the front-door docs reference things
that no longer exist in the tree.

Checked documents: README.md, docs/ARCHITECTURE.md, docs/SERVING.md,
tools/README.md.
Checked reference kinds:

  * CLI flags (``--levels``, ``--no-cache``, ...) must appear in
    tools/hyparc_app.cc (its parser or usage string).
  * The reverse direction too: every flag hyparc's parser accepts
    (``arg == "--x"`` in parseArgs) must be advertised in the usage()
    string and mentioned by at least one checked document, so a new
    flag (``--overlap``, ``--limit``, ``--seed``, ...) cannot land
    undocumented.
  * Backticked targets that look like binaries/targets
    (``bench_*``, ``test_*``, ``hyparc``, ``example_*``,
    ``*_json``) must exist as sources or CMake custom targets.
  * ``--model <name>`` examples must name a real zoo model
    (src/dnn/model_zoo.cc).
  * Relative ``*.md``/``*.py``/source links must exist on disk.
  * The serving contract: docs/SERVING.md's request-schema table
    (rows of the form ``| `field` | ...``) must match the
    kRequestFields whitelist in src/serve/server.hh exactly, in both
    directions — a field added to the parser without documentation,
    or documented without being parsed, fails the gate.

Run from anywhere: paths resolve relative to the repo root (parent of
this script's directory); pass ``--root <dir>`` to check another tree
(the negative tests in tools/test_check_docs.py use this). Exit code 1
lists every stale reference.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "docs/ARCHITECTURE.md", "docs/SERVING.md",
        "tools/README.md"]

# Flags consumed by binaries other than hyparc (the google-benchmark
# harness) that the docs legitimately mention.
FOREIGN_FLAGS = {
    "--benchmark_format",
    "--benchmark_out",
    "--benchmark_out_format",
    "--benchmark_min_time",
    "--benchmark_filter",
    "--help",
    # cmake / ctest flags in build instructions
    "--build",
    "--target",
    "--output-on-failure",
    "--test-dir",
}


def read(relpath):
    return (ROOT / relpath).read_text(encoding="utf-8")


def check_serving_schema(errors):
    """docs/SERVING.md's schema table vs server.hh's kRequestFields."""
    server = read("src/serve/server.hh")
    init = re.search(r"kRequestFields\[\]\s*=\s*\{(.*?)\};", server,
                     re.S)
    if not init:
        errors.append("src/serve/server.hh: could not locate the "
                      "kRequestFields initializer (update "
                      "check_docs.py)")
        return
    # Strip the per-field // comments first — they quote nested JSON
    # keys ("nodes", "links") that are not request fields.
    body = re.sub(r"//[^\n]*", "", init.group(1))
    parsed = re.findall(r'"(\w+)"', body)

    serving = read("docs/SERVING.md")
    section = re.search(r"^## Request fields$(.*?)(?=^## |\Z)", serving,
                        re.S | re.M)
    if not section:
        errors.append("docs/SERVING.md: no '## Request fields' "
                      "section found")
        return
    documented = re.findall(r"^\|\s*`(\w+)`", section.group(1), re.M)
    if not documented:
        errors.append("docs/SERVING.md: no request-schema table rows "
                      "(| `field` | ...) under '## Request fields'")
        return
    for field in parsed:
        if field not in documented:
            errors.append(
                f"docs/SERVING.md: request field '{field}' accepted "
                "by the server but missing from the schema table")
    for field in documented:
        if field not in parsed:
            errors.append(
                f"docs/SERVING.md: schema table documents '{field}' "
                "but src/serve/server.hh does not accept it")


def fail(errors):
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    print(f"check_docs: {len(errors)} stale reference(s)", file=sys.stderr)
    return 1


def main():
    errors = []
    app = read("tools/hyparc_app.cc")
    zoo = read("src/dnn/model_zoo.cc")
    cmake = read("CMakeLists.txt")

    # Zoo names are only the ones NetworkBuilder registers (not every
    # quoted string — layer names would silence the check).
    known_models = set(
        re.findall(r'NetworkBuilder(?:\s+\w+)?\("([^"]+)"', zoo)
    )
    # Exact flag tokens hyparc parses or advertises, for exact
    # membership (substring matching would let a stale
    # '--max-session' ride on '--max-session-bytes').
    known_flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", app))

    # The flags the parser actually accepts, and the usage() string, for
    # the reverse (undocumented-flag) check below.
    parsed_flags = set(re.findall(r'arg == "(--[a-z][\w-]*)"', app))
    usage_match = re.search(
        r"^usage\(\)\n\{\n(.*?)^\}$", app, re.S | re.M)
    usage_body = usage_match.group(1) if usage_match else ""
    doc_flags = set()
    for doc in DOCS:
        doc_flags |= set(
            re.findall(r"(?<![\w-])--[a-z][\w-]*", read(doc)))

    if not usage_match:
        errors.append("tools/hyparc_app.cc: could not locate the "
                      "usage() body (update check_docs.py)")
    for flag in sorted(parsed_flags):
        if usage_body and flag not in set(
                re.findall(r"(?<![\w-])--[a-z][\w-]*", usage_body)):
            errors.append(
                f"tools/hyparc_app.cc: parsed flag '{flag}' missing "
                "from the usage() string")
        if flag not in doc_flags:
            errors.append(
                f"tools/hyparc_app.cc: parsed flag '{flag}' not "
                "documented in any of " + ", ".join(DOCS))

    source_stems = {
        p.stem for p in ROOT.glob("bench/*.cc")
    } | {p.stem for p in ROOT.glob("tests/test_*.cc")}
    example_stems = {
        "example_" + p.stem for p in ROOT.glob("examples/*.cpp")
    }
    custom_targets = set(
        re.findall(r"add_custom_target\((\w+)", cmake)
    )
    known_targets = (
        source_stems | example_stems | custom_targets | {"hyparc"}
    )

    for doc in DOCS:
        text = read(doc)

        # CLI flags: every --flag token must be parsed (or at least
        # advertised) by hyparc, unless it belongs to a foreign tool.
        for flag in sorted(set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))):
            if flag in FOREIGN_FLAGS:
                continue
            if flag not in known_flags:
                errors.append(f"{doc}: flag '{flag}' not in hyparc_app.cc")

        # Zoo models in `--model X` examples.
        for name in re.findall(r"--model ([\w-]+)", text):
            if name not in known_models:
                errors.append(f"{doc}: zoo model '{name}' not in model_zoo.cc")

        # Backticked binary/target names.
        for token in re.findall(r"`([\w/.]+)`", text):
            base = token.split("/")[-1]
            if re.fullmatch(r"(bench_\w+|test_\w+|example_\w+|hyparc)", base):
                if base not in known_targets:
                    errors.append(f"{doc}: target '{base}' does not exist")

        # Relative file links/mentions.
        for token in re.findall(
                r"[\(`]((?:[\w-]+/)*[\w.-]+\.(?:md|py|hh|cc|hp))[\)`]", text):
            if token.startswith("/") or "*" in token:
                continue
            candidates = [ROOT / token, ROOT / pathlib.Path(doc).parent / token]
            if any(c.exists() for c in candidates):
                continue
            # Bare filename mentioned in prose: accept it anywhere in
            # the tree (build/ output names are generated, skip those).
            if "/" not in token and (
                    token.startswith("BENCH_") or
                    list(ROOT.glob(f"*/{token}")) or
                    list(ROOT.glob(f"src/*/{token}")) or
                    list(ROOT.glob(token))):
                continue
            errors.append(f"{doc}: file '{token}' does not exist")

    check_serving_schema(errors)

    if errors:
        return fail(errors)
    print(f"check_docs: {len(DOCS)} documents clean")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--root":
        ROOT = pathlib.Path(sys.argv[2]).resolve()
    sys.exit(main())
