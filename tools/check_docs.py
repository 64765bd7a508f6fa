"""Documentation CI gate: executable docs, passing doctests, valid links.

Three checks, all enforced by the ``docs`` CI job (and by
``tests/test_docs.py``, so a broken doc fails the tier-1 suite too):

1. **Code blocks execute.**  Every fenced block in ``README.md`` and
   ``docs/*.md`` whose info string is exactly ```` ```python ```` is executed
   top to bottom.  Blocks in one file share a namespace (a page reads as one
   narrative), each file starts fresh, and execution happens inside a
   temporary working directory so examples may freely write stores/benches.
   Illustrative, deliberately non-runnable snippets are fenced as
   ```` ```python notest ```` (rendered identically by GitHub).
2. **Doctests pass.**  The docstring examples of the public API surface
   (``repro.api``, ``repro.stream``, ``repro.sweeps``, ``repro.service``
   including ``repro.service.net``, ``repro.lut``, ``repro.unionfind`` and
   every ``repro.evaluation`` module) run under
   ``ELLIPSIS | NORMALIZE_WHITESPACE``.
3. **Intra-repo links resolve.**  Every relative markdown link target in the
   checked files must exist (``http(s)``/``mailto`` links and pure anchors
   are skipped; ``#fragment`` suffixes are stripped before the check).

Usage::

    python tools/check_docs.py            # all three checks
    python tools/check_docs.py --no-doctest --no-links   # code blocks only
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Markdown files whose code blocks and links are checked.
DOC_FILES = (
    "README.md",
    *sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "docs").glob("*.md")
    ),
)

#: Modules whose doctests form the documented public API surface.
DOCTEST_MODULES = (
    "repro.graphs.noise",
    "repro.graphs.decoding_graph",
    "repro.graphs.syndrome",
    "repro.api.hashing",
    "repro.api.wireform",
    "repro.api.config",
    "repro.api.erasure",
    "repro.api.registry",
    "repro.lut.outcome_cache",
    "repro.lut.table",
    "repro.lut.decoder",
    "repro.unionfind.decoder",
    "repro.core.decoder",
    "repro.parity.decoder",
    "repro.api.outcome",
    "repro.api.protocol",
    "repro.api.session",
    "repro.api.batch",
    "repro.api.bench_schema",
    "repro.stream",
    "repro.stream.adapter",
    "repro.sweeps.spec",
    "repro.sweeps.store",
    "repro.sweeps.runner",
    "repro.sweeps.bench",
    "repro.service.config",
    "repro.service.request",
    "repro.service.cache",
    "repro.service.batcher",
    "repro.service.faults",
    "repro.service.service",
    "repro.service.trace",
    "repro.service.bench",
    "repro.service.net.bench",
    "repro.service.net.client",
    "repro.service.net.protocol",
    "repro.service.net.router",
    "repro.service.net.server",
    "repro.service.net.worker",
    "repro.evaluation.engine",
    "repro.evaluation.experiments",
    "repro.evaluation.monte_carlo",
    "repro.evaluation.scaling",
    "repro.evaluation.stream",
    "repro.evaluation.service_load",
)

_FENCE_RE = re.compile(r"^```(.*)$")
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_code_blocks(path: Path):
    """Yield ``(first_line_number, info_string, source)`` per fenced block."""
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block = False
    info = ""
    start = 0
    body: list[str] = []
    for number, line in enumerate(lines, start=1):
        match = _FENCE_RE.match(line.strip())
        if match is None:
            if in_block:
                body.append(line)
            continue
        if not in_block:
            in_block = True
            info = match.group(1).strip()
            start = number + 1
            body = []
        else:
            in_block = False
            yield start, info, "\n".join(body) + "\n"


def check_code_blocks(files=DOC_FILES) -> list[str]:
    """Execute every ```python block; return a list of failure messages."""
    failures: list[str] = []
    for name in files:
        path = REPO_ROOT / name
        namespace: dict = {"__name__": f"docs_block::{name}"}
        executed = 0
        with tempfile.TemporaryDirectory(prefix="repro-docs-") as workdir:
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                for lineno, info, source in iter_code_blocks(path):
                    if info != "python":
                        continue
                    try:
                        exec(compile(source, f"{name}:{lineno}", "exec"), namespace)
                        executed += 1
                    except Exception:
                        failures.append(
                            f"{name}:{lineno}: code block raised\n"
                            + traceback.format_exc(limit=4)
                        )
            finally:
                os.chdir(cwd)
        print(f"  {name}: {executed} python block(s) executed")
    return failures


def check_doctests(modules=DOCTEST_MODULES) -> list[str]:
    """Run the doctest suite of each module; return failure messages."""
    failures: list[str] = []
    flags = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    for name in modules:
        module = importlib.import_module(name)
        result = doctest.testmod(module, optionflags=flags, verbose=False)
        status = f"{result.attempted} example(s)"
        if result.failed:
            failures.append(f"{name}: {result.failed}/{result.attempted} doctest(s) failed")
            status += f", {result.failed} FAILED"
        print(f"  {name}: {status}")
    return failures


def check_links(files=DOC_FILES) -> list[str]:
    """Verify every relative markdown link target exists."""
    failures: list[str] = []
    for name in files:
        path = REPO_ROOT / name
        checked = 0
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for target in _LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = (path.parent / relative).resolve()
                checked += 1
                if not resolved.exists():
                    failures.append(f"{name}:{number}: broken link -> {target}")
        print(f"  {name}: {checked} intra-repo link(s) checked")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-blocks", action="store_true", help="skip code-block execution")
    parser.add_argument("--no-doctest", action="store_true", help="skip module doctests")
    parser.add_argument("--no-links", action="store_true", help="skip the link checker")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_ROOT))
    failures: list[str] = []
    if not args.no_blocks:
        print("== executing markdown code blocks ==")
        failures += check_code_blocks()
    if not args.no_doctest:
        print("== running public-API doctests ==")
        failures += check_doctests()
    if not args.no_links:
        print("== checking intra-repo links ==")
        failures += check_links()
    if failures:
        print(f"\n{len(failures)} documentation failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ndocumentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
