"""Tier-1 wrapper around the documentation gate (``tools/check_docs.py``).

The ``docs`` CI job runs the tool directly; these tests run the same three
checks through pytest so a broken documentation example also fails the
ordinary test suite (and shows up in local `pytest` runs before push).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestDocumentation:
    def test_markdown_python_blocks_execute(self):
        failures = check_docs.check_code_blocks()
        assert not failures, "\n".join(failures)

    def test_public_api_doctests_pass(self):
        failures = check_docs.check_doctests()
        assert not failures, "\n".join(failures)

    def test_intra_repo_links_resolve(self):
        failures = check_docs.check_links()
        assert not failures, "\n".join(failures)

    def test_every_doc_page_is_linked_from_the_index(self):
        index = (REPO_ROOT / "docs" / "index.md").read_text()
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            if page.name == "index.md":
                continue
            assert f"({page.name})" in index, f"docs/index.md misses {page.name}"

    def test_checker_covers_service_modules(self):
        """The doctest surface must include the whole service package (the
        network tier included), the LUT pre-decoder, union-find, the
        evaluation package and every module with a ``>>> `` example."""
        covered = set(check_docs.DOCTEST_MODULES)
        src = REPO_ROOT / "src"
        package = src / "repro"
        for module in [
            *(package / "service").glob("*.py"),
            *(package / "service" / "net").glob("*.py"),
            *(package / "lut").glob("*.py"),
            *(package / "unionfind").glob("*.py"),
            *(package / "evaluation").glob("*.py"),
        ]:
            if module.stem == "__init__":
                continue
            name = ".".join(module.relative_to(src).with_suffix("").parts)
            assert name in covered, name
        # ... and so must every other module whose source holds an example.
        for module in package.rglob("*.py"):
            if ">>> " not in module.read_text(encoding="utf-8"):
                continue
            parts = module.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            assert ".".join(parts) in covered, module
