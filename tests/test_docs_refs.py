"""Link-check the documentation against the tree.

Docs rot silently: a renamed class or moved file leaves `docs/*.md`
pointing at nothing.  This test walks every markdown doc (plus README.md)
and verifies three kinds of reference against the actual repository:

* **path anchors** — backticked ``path/to/file.py`` / ``file.md``
  references exist; ``file.py:Symbol`` anchors additionally name a
  class/def/constant that is really defined in that file, and
  ``file.py::test_name`` pytest anchors name a real test;
* **dotted names** — ``repro.module.attr`` chains import and resolve;
* **relative links** — ``[text](other.md#anchor)`` targets exist, and the
  ``#anchor`` matches a real heading;
* **JSON snippets** — every ```` ```json ```` fenced block parses, and
  any block shaped like a ScenarioSpec (or a legacy shape ``load_spec``
  upgrades) passes full spec validation;
* **CLI invocations** — every ``python -m repro ...`` command, in a fenced
  block or inline code, parses with the CLI's own argument parser
  (parsing only: nothing runs).

CI runs this as the docs job; if it fails, either the docs or the code
moved without the other.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

# `path/to/file.py`, optionally with `:Symbol[.attr]` or `::test_name`.
PATH_REF = re.compile(
    r"`(?P<path>[\w.-]+(?:/[\w.-]+)*\.(?:py|md))"
    r"(?:::(?P<test>[A-Za-z_]\w*)|:(?P<symbol>[A-Za-z_][\w.]*))?`"
)

# `repro.module[.attr...]` dotted references.
DOTTED_REF = re.compile(r"`(?P<dotted>repro\.[A-Za-z_][\w.]*)`")

# [text](relative/target.md#anchor) links (external schemes skipped).
MD_LINK = re.compile(r"\[[^\]]+\]\((?P<target>[^)\s]+)\)")

# ```json fenced blocks.
JSON_BLOCK = re.compile(r"```json\n(?P<body>.*?)```", re.DOTALL)

# Any fenced block, and a CLI invocation inside one or in inline code.
FENCED_BLOCK = re.compile(r"```[^\n]*\n(?P<body>.*?)```", re.DOTALL)
CLI_IN_BLOCK = re.compile(r"python -m repro\b(?P<args>.*)")
CLI_INLINE = re.compile(r"`python -m repro\b(?P<args>[^`]*)`")

# Where a shell line stops being repro's arguments.
SHELL_TAIL = re.compile(r"\s#|[|>;]|&&")


def _doc_ids():
    return [str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]


def _slugify(heading: str) -> str:
    """GitHub-style heading slug (close enough for our own docs)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*]", "", slug)
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"[\s]+", "-", slug).strip("-")


def _symbol_defined(text: str, symbol: str) -> bool:
    """Is ``symbol`` (possibly dotted) plausibly defined in ``text``?

    The head must be a real definition (class/def/module constant); any
    trailing attribute parts need only appear as words (methods,
    dataclass fields and properties all qualify).
    """
    head, *rest = symbol.split(".")
    head_defined = re.search(
        rf"(?m)^(?:class|def)\s+{re.escape(head)}\b|^{re.escape(head)}\s*[:=]",
        text,
    )
    if not head_defined:
        return False
    return all(re.search(rf"\b{re.escape(part)}\b", text) for part in rest)


def _resolve_dotted(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_path_references_exist(doc):
    text = doc.read_text()
    problems = []
    for match in PATH_REF.finditer(text):
        rel = match.group("path")
        target = REPO_ROOT / rel
        if not target.exists():
            problems.append(f"{rel}: file does not exist")
            continue
        symbol = match.group("symbol")
        if symbol and not _symbol_defined(target.read_text(), symbol):
            problems.append(f"{rel}:{symbol}: symbol not defined there")
        test_name = match.group("test")
        if test_name and not re.search(
            rf"(?m)^def {re.escape(test_name)}\b", target.read_text()
        ):
            problems.append(f"{rel}::{test_name}: no such test")
    assert not problems, (
        f"{doc.relative_to(REPO_ROOT)} has stale path references:\n  "
        + "\n  ".join(problems)
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_dotted_references_resolve(doc):
    text = doc.read_text()
    problems = []
    for match in DOTTED_REF.finditer(text):
        dotted = match.group("dotted").rstrip(".")
        if not _resolve_dotted(dotted):
            problems.append(dotted)
    assert not problems, (
        f"{doc.relative_to(REPO_ROOT)} has unresolvable dotted names:\n  "
        + "\n  ".join(problems)
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_and_anchors(doc):
    text = doc.read_text()
    problems = []
    for match in MD_LINK.finditer(text):
        target = match.group("target")
        if re.match(r"^[a-z]+://|^mailto:", target):
            continue  # external
        path_part, _, fragment = target.partition("#")
        if not path_part:
            dest = doc  # pure in-page anchor
        else:
            dest = (doc.parent / path_part).resolve()
            if not dest.exists():
                problems.append(f"{target}: target missing")
                continue
        if fragment and dest.suffix == ".md":
            headings = re.findall(r"(?m)^#{1,6}\s+(..*)$", dest.read_text())
            slugs = {_slugify(h) for h in headings}
            if fragment not in slugs:
                problems.append(
                    f"{target}: no heading slugs to '{fragment}' "
                    f"(have: {', '.join(sorted(slugs))})"
                )
    assert not problems, (
        f"{doc.relative_to(REPO_ROOT)} has broken links:\n  "
        + "\n  ".join(problems)
    )


def _spec_shaped(data) -> bool:
    """Would ``repro.spec.load_spec`` accept this document?

    Mirrors the loader's own shape detection: v1 specs carry
    ``scenario``/``version``, check reproducers carry ``kind``, legacy
    WorkloadSpec dicts carry ``system``, and bare fault plans are a
    subset of the fault-plan field set.
    """
    if not isinstance(data, dict):
        return False
    if {"scenario", "version", "kind", "system"} & set(data):
        return True
    fault_keys = {"seed", "message_loss", "corruption",
                  "delay_probability", "delay_range", "timed"}
    return bool(data) and set(data) <= fault_keys


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_json_snippets_parse_and_validate(doc):
    from repro.spec import SpecError, load_spec

    text = doc.read_text()
    problems = []
    for i, match in enumerate(JSON_BLOCK.finditer(text)):
        body = match.group("body")
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            problems.append(f"json block {i}: does not parse: {exc}")
            continue
        if _spec_shaped(data):
            try:
                load_spec(data)
            except SpecError as exc:
                problems.append(f"json block {i}: invalid spec: {exc}")
    assert not problems, (
        f"{doc.relative_to(REPO_ROOT)} has bad JSON snippets:\n  "
        + "\n  ".join(problems)
    )


def _cli_commands(text: str):
    """Every ``python -m repro`` argument string in one markdown doc.

    Backslash continuations are joined first; prose paragraphs are
    unwrapped so inline code that wraps a line is read whole.
    """
    text = text.replace("\\\n", " ")
    for block in FENCED_BLOCK.finditer(text):
        for match in CLI_IN_BLOCK.finditer(block.group("body")):
            yield match.group("args")
    prose = re.sub(r"(?<!\n)\n(?!\n)", " ", FENCED_BLOCK.sub("", text))
    for match in CLI_INLINE.finditer(prose):
        yield match.group("args")


def test_cli_invocations_parse():
    """Every CLI invocation shown in the docs is one the CLI accepts."""
    from repro.cli import build_parser

    parser = build_parser()
    seen, problems = 0, []
    for doc in DOC_FILES:
        for args in _cli_commands(doc.read_text()):
            argv = shlex.split(SHELL_TAIL.split(args, 1)[0])
            seen += 1
            if len(argv) == 1:  # a bare verb name must name a verb
                argv.append("--help")
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr), \
                        contextlib.redirect_stdout(io.StringIO()):
                    parser.parse_args(argv)
            except SystemExit as exc:
                if exc.code == 0:
                    continue
                error = stderr.getvalue().strip().splitlines()[-1:]
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: python -m repro "
                    f"{' '.join(argv)}: {' '.join(error)}"
                )
    assert seen >= 40, f"only {seen} CLI invocations found; regex rot?"
    assert not problems, (
        "docs show CLI invocations the parser rejects:\n  "
        + "\n  ".join(problems)
    )


def test_cookbook_examples_match_shipped_specs():
    """The cookbook's spec snippets are the shipped example files.

    Every spec-shaped snippet in docs/scenario_spec.md must digest-match
    one of ``examples/specs/*.json`` — the cookbook cannot drift from
    what CI actually runs.
    """
    from repro.spec import load_spec, load_spec_file

    shipped = {
        load_spec_file(path).digest(): path.name
        for path in sorted((REPO_ROOT / "examples" / "specs").glob("*.json"))
    }
    assert shipped, "examples/specs/ is empty"
    text = (REPO_ROOT / "docs" / "scenario_spec.md").read_text()
    snippets = [
        json.loads(m.group("body")) for m in JSON_BLOCK.finditer(text)
    ]
    spec_snippets = [s for s in snippets if _spec_shaped(s)]
    assert len(spec_snippets) >= 4, "cookbook needs at least 4 worked specs"
    for data in spec_snippets:
        digest = load_spec(data).digest()
        assert digest in shipped, (
            f"cookbook snippet {data.get('name')!r} matches no file in "
            f"examples/specs/ (have: {sorted(shipped.values())})"
        )


def test_docs_exist_at_all():
    """The documented doc set is present (guards against deletion)."""
    expected = {"architecture.md", "running_experiments.md",
                "paper_to_code_map.md", "scenario_spec.md"}
    have = {p.name for p in (REPO_ROOT / "docs").glob("*.md")}
    assert expected <= have, f"missing docs: {expected - have}"
