#!/usr/bin/env python3
"""Negative tests for the docs-hygiene gate (tools/check_docs.py).

check_docs.py guards the docs against drift, but a gate that never
fires is indistinguishable from no gate — so this suite copies the
repo into a temp tree, verifies the copy passes, then breaks the copy
in the specific ways the gate promises to catch and asserts it FAILS:

  * a flag removed from hyparc's parser while the docs still mention
    it (stale-flag direction) — and a parsed flag scrubbed from every
    document (undocumented-flag direction); a doc still advertising
    the retired ``--engine`` flag is the same stale-flag case;
  * a request field removed from the kRequestFields whitelist in
    src/serve/server.hh while docs/SERVING.md still documents it, and
    the reverse (a schema row deleted from SERVING.md while the
    server still parses the field).

Registered with ctest as ``test_check_docs``; runnable directly.
"""

import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECK = ROOT / "tools" / "check_docs.py"

# Everything check_docs.py reads: the documents, the sources it
# cross-references, and the globs it derives target names from.
COPIED = [
    "README.md",
    "CMakeLists.txt",
    "PAPER.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs",
    "tools",
    "src",
    "bench",
    "tests",
    "examples",
]


def make_tree(dst):
    for rel in COPIED:
        src = ROOT / rel
        target = dst / rel
        if src.is_dir():
            shutil.copytree(src, target)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_check(root):
    return subprocess.run(
        [sys.executable, str(CHECK), "--root", str(root)],
        capture_output=True, text=True)


def edit(path, pattern, replacement, count=0):
    """Regex-rewrite a copied file; the pattern must match."""
    text = path.read_text(encoding="utf-8")
    new, n = re.subn(pattern, replacement, text, count=count, flags=re.M)
    if n == 0:
        raise AssertionError(f"pattern {pattern!r} not found in {path}")
    path.write_text(new, encoding="utf-8")


class CheckDocsGate(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="hyparc_docs_")
        self.root = pathlib.Path(self._tmp.name)
        make_tree(self.root)

    def tearDown(self):
        self._tmp.cleanup()

    def test_pristine_copy_passes(self):
        res = run_check(self.root)
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_removing_a_serve_flag_from_the_parser_fails(self):
        # The docs keep advertising --no-cache; hyparc forgets it
        # entirely (parser and usage string both).
        edit(self.root / "tools" / "hyparc_app.cc",
             r"--no-cache", "--no-cash")
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("'--no-cache' not in hyparc_app.cc", res.stderr)

    def test_retired_engine_flag_in_a_doc_fails(self):
        # hyparc picks its own search engine; a doc that still tells
        # users to pass --engine names a flag the parser rejects.
        readme = self.root / "README.md"
        readme.write_text(
            readme.read_text(encoding="utf-8") +
            "\n    build/hyparc plan --model VGG-E --strategy optimal "
            "--engine astar\n",
            encoding="utf-8")
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("'--engine' not in hyparc_app.cc", res.stderr)

    def test_undocumented_parsed_flag_fails(self):
        # Scrub --evict from every checked document (parser keeps it).
        for rel in ["README.md", "docs/SERVING.md", "docs/ARCHITECTURE.md",
                    "tools/README.md"]:
            path = self.root / rel
            path.write_text(
                path.read_text(encoding="utf-8").replace("--evict",
                                                         "(evict)"),
                encoding="utf-8")
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("--evict", res.stderr)
        self.assertIn("not documented", res.stderr)

    def test_removing_a_schema_row_from_serving_md_fails(self):
        # The server still parses overlap; the contract stops
        # documenting it.
        edit(self.root / "docs" / "SERVING.md",
             r"^\|\s*`overlap`[^\n]*\n", "", count=1)
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("overlap", res.stderr)
        self.assertIn("missing from the schema table", res.stderr)

    def test_removing_a_parsed_field_from_the_server_fails(self):
        # SERVING.md still documents steps; the whitelist drops it.
        edit(self.root / "src" / "serve" / "server.hh",
             r'\n\s*"steps",[^\n]*', "", count=1)
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("steps", res.stderr)
        self.assertIn("does not accept it", res.stderr)

    def test_stale_target_reference_fails(self):
        # A document naming a bench binary that does not exist.
        readme = self.root / "README.md"
        readme.write_text(
            readme.read_text(encoding="utf-8") +
            "\nSee `bench_nonexistent_figure` for details.\n",
            encoding="utf-8")
        res = run_check(self.root)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("bench_nonexistent_figure", res.stderr)


if __name__ == "__main__":
    unittest.main()
