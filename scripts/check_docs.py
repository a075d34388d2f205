#!/usr/bin/env python3
"""Keep the documentation suite mechanically honest.

Checks, over ``README.md`` and every ``docs/*.md``:

1. **Internal links resolve** — every relative markdown link
   ``[text](path)`` points at a file or directory that exists
   (anchors are stripped; external ``http(s)``/``mailto`` links and
   pure in-page anchors are skipped).
2. **CLI coverage** — every ``facile`` subcommand registered in
   :func:`repro.cli.build_parser` (``predict``, ``table*``,
   ``figure*``, ``bench``, ``serve``, …) is mentioned in the README,
   so a new subcommand cannot ship undocumented.
3. **API conformance** — the service reference ``docs/SERVICE.md``
   agrees with the server, in both directions: every route in
   ``repro.service.server.ROUTES`` appears as a backticked
   `` `METHOD /path` `` token (and no documented route is unserved),
   and every v1 error code in ``repro.service.serialize.ERROR_CODES``
   appears as a ``| `code` | status |`` table row (and vice versa).
4. **Metrics conformance** — the observability reference
   ``docs/OBSERVABILITY.md`` agrees with the code's metric catalog
   (``repro.obs.metrics.METRIC_CATALOG``) in both directions: every
   catalogued metric name appears as a backticked ``facile_*`` token,
   and every backticked ``facile_*`` token names a catalogued metric
   (a doc cannot advertise a metric the registry never exports); and
   the labels column of a catalogued metric's table row names exactly
   its catalog entry's label names (``—`` for none).
5. **Serve flags** — the flag table at the top of ``docs/SERVICE.md``
   has one ``| `--flag` |`` row per long option of ``facile serve``
   in :func:`repro.cli.build_parser` (``--help`` aside), and no row
   for an option the command does not accept.
6. **Environment knobs** — every ``REPRO_*`` name in ``src/`` is named
   in the README or a ``docs/*.md`` page, and every ``REPRO_*`` name
   those pages mention appears in ``src/`` (a doc cannot advertise a
   variable the program no longer reads).
7. **Section references** — in the README, ``docs/*.md`` and
   ``scripts/*.py``, a backticked markdown file name followed by the
   section sign quotes, in double quotes, a heading that file has (the
   file is looked up beside the referring file, then at the repository
   root).
8. **Python floor** — ``requires-python`` in ``pyproject.toml`` is the
   lowest Python version of the test matrix in
   ``.github/workflows/ci.yml``, and the README's "Python X.Y+" says the
   same (the package is not tested below its declared floor).
9. **Stats keys** — the ``cache`` object of the ``/v1/stats`` example
   in ``docs/SERVICE.md`` lists exactly the keys of
   ``ColumnarCore.stats()``, which the server reports there: none
   missing, none the core no longer counts.
10. **Backticked flags** — every ``--flag`` token inside an inline code
    span of the README or a ``docs/*.md`` page is a long option of some
    ``facile`` subcommand in :func:`repro.cli.build_parser` (a doc
    cannot advertise an option the CLI dropped).  Fenced code blocks
    are skipped.

Run directly (exits non-zero and lists problems on failure)::

    python scripts/check_docs.py

or through the test suite (``tests/test_docs.py``).
"""

import json
import os
import re
import sys
from typing import Iterable, List, Set, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))

#: Markdown inline links: [text](target).  Deliberately simple — the
#: docs do not use reference-style links or angle-bracket targets.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")

#: Link targets that are not files to resolve.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def markdown_files(root: str = REPO_ROOT) -> List[str]:
    """The documentation set: README.md plus everything under docs/."""
    files = []
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        files.append(readme)
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        files.extend(os.path.join(docs_dir, name)
                     for name in sorted(os.listdir(docs_dir))
                     if name.endswith(".md"))
    return files


def extract_links(text: str) -> List[str]:
    """All inline link targets of a markdown document."""
    return LINK_RE.findall(text)


def broken_links(path: str) -> List[Tuple[str, str]]:
    """(target, reason) for every unresolvable internal link of *path*."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    problems = []
    for target in extract_links(text):
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:  # pure in-page anchor
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), file_part))
        if not os.path.exists(resolved):
            problems.append((target, f"resolves to missing {resolved}"))
    return problems


def _subparsers():
    """Subcommand name -> parser, as registered on the ``facile``
    parser."""
    import argparse

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("facile parser has no subparsers?")


def cli_subcommands() -> List[str]:
    """Every subcommand name registered on the ``facile`` parser."""
    return list(_subparsers())


def cli_options() -> Set[str]:
    """Every long option of every ``facile`` subcommand."""
    return {option for parser in _subparsers().values()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")}


def serve_flags() -> List[str]:
    """Every long option of ``facile serve`` but ``--help``."""
    return [option for action in _subparsers()["serve"]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"]


def undocumented_subcommands(readme_path: str,
                             commands: Iterable[str]) -> List[str]:
    """Subcommands not mentioned as ``facile <name>`` in the README."""
    with open(readme_path, encoding="utf-8") as handle:
        text = handle.read()
    return [name for name in commands
            if not re.search(rf"facile\s+{re.escape(name)}\b", text)]


#: Backticked route tokens in SERVICE.md: `GET /health`, `POST /v1/...`
ROUTE_TOKEN_RE = re.compile(r"`(GET|POST)\s+(/[^`\s]*)`")

#: Error-code table rows in SERVICE.md: | `overloaded` | 429 | ...
ERROR_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|\s*(\d{3})\s*\|",
                          re.MULTILINE)


def api_conformance_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between ``docs/SERVICE.md`` and the service (both ways)."""
    service_md = os.path.join(root, "docs", "SERVICE.md")
    if not os.path.exists(service_md):
        return ["docs/SERVICE.md is missing (the service reference)"]
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.service.serialize import ERROR_CODES
    from repro.service.server import ROUTES

    with open(service_md, encoding="utf-8") as handle:
        text = handle.read()
    problems = []

    served = {(method, path) for method, paths in ROUTES.items()
              for path in paths}
    documented = set(ROUTE_TOKEN_RE.findall(text))
    for method, path in sorted(served - documented):
        problems.append(f"docs/SERVICE.md: served route `{method} "
                        f"{path}` is undocumented")
    for method, path in sorted(documented - served):
        problems.append(f"docs/SERVICE.md: documents `{method} {path}` "
                        "but the server does not serve it")

    codes = {(code, status) for status, code in ERROR_CODES.items()}
    rows = {(code, int(status))
            for code, status in ERROR_ROW_RE.findall(text)}
    for code, status in sorted(codes - rows):
        problems.append(f"docs/SERVICE.md: error code {code!r} "
                        f"(HTTP {status}) missing from the error-code "
                        "table")
    for code, status in sorted(rows - codes):
        problems.append(f"docs/SERVICE.md: error-code table lists "
                        f"{code!r} (HTTP {status}), which the server "
                        "does not emit")
    return problems


#: Flag-table rows in SERVICE.md: | `--max-batch` | `64` | ...
FLAG_ROW_RE = re.compile(r"^\|\s*`(--[a-z][a-z0-9-]*)`\s*\|",
                         re.MULTILINE)


def serve_flag_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between ``facile serve``'s options and the flag table of
    ``docs/SERVICE.md`` (both ways).  A missing SERVICE.md is reported
    by :func:`api_conformance_problems`."""
    service_md = os.path.join(root, "docs", "SERVICE.md")
    if not os.path.exists(service_md):
        return []
    with open(service_md, encoding="utf-8") as handle:
        rows = set(FLAG_ROW_RE.findall(handle.read()))
    flags = set(serve_flags())
    problems = [f"docs/SERVICE.md: `facile serve {flag}` has no row in "
                "the flag table" for flag in sorted(flags - rows)]
    problems.extend(f"docs/SERVICE.md: the flag table lists `{flag}`, "
                    "which `facile serve` does not accept"
                    for flag in sorted(rows - flags))
    return problems


#: Backticked metric tokens in OBSERVABILITY.md: `facile_x_total`,
#: `facile_span_duration_ms{span=...}` (label hints are stripped).
METRIC_TOKEN_RE = re.compile(r"`(facile_[a-z0-9_]+)(?:\{[^`]*\})?`")

#: Metric-table rows in OBSERVABILITY.md:
#: | `facile_x_total` | counter | `uarch` | meaning |
METRIC_ROW_RE = re.compile(
    r"^\|\s*`(facile_[a-z0-9_]+)`\s*\|[^|]*\|([^|]*)\|", re.MULTILINE)
#: A backticked label name in a labels column.
LABEL_RE = re.compile(r"`([a-z_][a-z0-9_]*)`")


def metrics_conformance_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between ``docs/OBSERVABILITY.md`` and the metric catalog."""
    obs_md = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.exists(obs_md):
        return ["docs/OBSERVABILITY.md is missing "
                "(the observability reference)"]
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.obs.metrics import METRIC_CATALOG

    with open(obs_md, encoding="utf-8") as handle:
        text = handle.read()
    problems = []
    documented = set(METRIC_TOKEN_RE.findall(text))
    for name in sorted(set(METRIC_CATALOG) - documented):
        problems.append(f"docs/OBSERVABILITY.md: catalogued metric "
                        f"`{name}` is undocumented")
    for name in sorted(documented - set(METRIC_CATALOG)):
        problems.append(f"docs/OBSERVABILITY.md: documents `{name}`, "
                        "which is not in the metric catalog")
    rows = {name: set(LABEL_RE.findall(labels))
            for name, labels in METRIC_ROW_RE.findall(text)}
    for name, (_, _, labels) in sorted(METRIC_CATALOG.items()):
        if name not in rows:
            continue
        for label in sorted(set(labels) - rows[name]):
            problems.append(f"docs/OBSERVABILITY.md: `{name}` is "
                            f"labelled `{label}`, which its row omits")
        for label in sorted(rows[name] - set(labels)):
            problems.append(f"docs/OBSERVABILITY.md: the row of `{name}` "
                            f"names label `{label}`, which the catalog "
                            "does not")
    return problems


#: Environment variables of the program: REPRO_FAULTS, REPRO_LOG, ...
KNOB_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")


def _knobs_in(path: str) -> Set[str]:
    with open(path, encoding="utf-8") as handle:
        return set(KNOB_RE.findall(handle.read()))


def knob_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between the ``REPRO_*`` names of ``src/`` and those of the
    README and ``docs/*.md`` (both ways)."""
    in_src: Set[str] = set()
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                in_src |= _knobs_in(os.path.join(dirpath, name))
    by_doc = {os.path.relpath(path, root): _knobs_in(path)
              for path in markdown_files(root)}
    documented = set().union(*by_doc.values())
    problems = [f"src/: `{knob}` is named in neither README.md nor "
                "docs/*.md" for knob in sorted(in_src - documented)]
    problems.extend(f"{rel}: names `{knob}`, which appears nowhere in "
                    "src/" for rel, knobs in by_doc.items()
                    for knob in sorted(knobs - in_src))
    return problems


#: A section reference: a backticked markdown file name, the section
#: sign and, when well formed, the heading in double quotes.
SECTION_REF_RE = re.compile(r'`+([\w./-]+\.md)`+\s*§\s*(?:"([^"]+)")?')
#: A markdown ATX heading line.
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)


def _headings(path: str) -> Set[str]:
    with open(path, encoding="utf-8") as handle:
        return set(HEADING_RE.findall(handle.read()))


def section_ref_problems(root: str = REPO_ROOT) -> List[str]:
    """Section references of the README, ``docs/*.md`` and
    ``scripts/*.py`` that quote no heading of the file they name."""
    scripts_dir = os.path.join(root, "scripts")
    sources = markdown_files(root)
    if os.path.isdir(scripts_dir):
        sources.extend(os.path.join(scripts_dir, name)
                       for name in sorted(os.listdir(scripts_dir))
                       if name.endswith(".py"))
    problems = []
    for path in sources:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for target, heading in SECTION_REF_RE.findall(text):
            if not heading:
                problems.append(f"{rel}: `{target}` § names no heading "
                                '(expected § "Heading")')
                continue
            heading = " ".join(heading.split())
            candidates = (os.path.join(os.path.dirname(path), target),
                          os.path.join(root, target))
            found = [c for c in candidates if os.path.isfile(c)]
            if not found:
                problems.append(f"{rel}: `{target}` § \"{heading}\" names "
                                "a missing file")
            elif heading not in _headings(found[0]):
                problems.append(f"{rel}: `{target}` has no heading "
                                f"\"{heading}\"")
    return problems


#: The ``/v1/stats`` section of SERVICE.md, up to the next section.
STATS_SECTION_RE = re.compile(r"^## `GET /v1/stats`$(.*?)(?=^## |\Z)",
                              re.MULTILINE | re.DOTALL)
#: The ``cache`` object of that section's example: a flat JSON object.
STATS_CACHE_RE = re.compile(r'"cache":\s*(\{[^{}]*\})')


def stats_cache_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between the ``cache`` object of ``docs/SERVICE.md``'s
    ``/v1/stats`` example and the keys of ``ColumnarCore.stats()``
    (both ways).  A missing SERVICE.md is reported by
    :func:`api_conformance_problems`."""
    service_md = os.path.join(root, "docs", "SERVICE.md")
    if not os.path.exists(service_md):
        return []
    with open(service_md, encoding="utf-8") as handle:
        section = STATS_SECTION_RE.search(handle.read())
    example = STATS_CACHE_RE.search(section.group(1)) if section else None
    if example is None:
        return ["docs/SERVICE.md: the `GET /v1/stats` section has no "
                "example `\"cache\"` object"]
    documented = set(json.loads(example.group(1)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.engine.columnar import ColumnarCore
    from repro.uarch import uarch_by_name

    keys = set(ColumnarCore(uarch_by_name("SKL")).stats())
    problems = [f"docs/SERVICE.md: the `/v1/stats` example's `cache` "
                f"omits `{key}`, a key of `ColumnarCore.stats()`"
                for key in sorted(keys - documented)]
    problems.extend(f"docs/SERVICE.md: the `/v1/stats` example's `cache` "
                    f"lists `{key}`, which `ColumnarCore.stats()` does "
                    "not report" for key in sorted(documented - keys))
    return problems


#: An inline code span on one line: `facile table2 --workers 2`.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
#: A long option inside a code span: --workers, --max-batch.
LONG_OPTION_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
#: The opening or closing line of a fenced code block.
FENCE_RE = re.compile(r"^\s*(```|~~~)")


def _outside_fences(text: str) -> str:
    """*text* without its fenced code blocks."""
    kept, fenced = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            fenced = not fenced
        elif not fenced:
            kept.append(line)
    return "\n".join(kept)


def flag_problems(root: str = REPO_ROOT) -> List[str]:
    """Backticked ``--flag`` tokens of the README and ``docs/*.md``
    that name no long option of any ``facile`` subcommand."""
    known = cli_options()
    problems = []
    for path in markdown_files(root):
        with open(path, encoding="utf-8") as handle:
            spans = CODE_SPAN_RE.findall(_outside_fences(handle.read()))
        flags = {flag for span in spans
                 for flag in LONG_OPTION_RE.findall(span)}
        problems.extend(f"{os.path.relpath(path, root)}: `{flag}` is an "
                        "option of no `facile` subcommand"
                        for flag in sorted(flags - known))
    return problems


#: ``requires-python = ">=3.9"`` in pyproject.toml.
FLOOR_RE = re.compile(r'^requires-python\s*=\s*">=\s*(\d+\.\d+)',
                      re.MULTILINE)
#: The test matrix in ci.yml: ``python-version: ["3.9", "3.11"]``.
MATRIX_RE = re.compile(r"python-version:\s*\[([^\]]*)\]")
#: The README's "Python 3.9+".
README_FLOOR_RE = re.compile(r"\bPython (\d+\.\d+)\+")


def _version(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def python_floor_problems(root: str = REPO_ROOT) -> List[str]:
    """Drift between the declared Python floor (``pyproject.toml``, the
    README) and the lowest Python CI tests on."""
    try:
        with open(os.path.join(root, "pyproject.toml"),
                  encoding="utf-8") as handle:
            floor = FLOOR_RE.search(handle.read())
        with open(os.path.join(root, ".github", "workflows", "ci.yml"),
                  encoding="utf-8") as handle:
            matrix = MATRIX_RE.search(handle.read())
    except OSError as exc:
        return [f"python floor: {exc}"]
    if floor is None:
        return ["pyproject.toml: no `requires-python = \">=X.Y\"` floor"]
    versions = re.findall(r"\d+\.\d+", matrix.group(1)) if matrix else []
    if not versions:
        return [".github/workflows/ci.yml: no python-version test matrix"]
    lowest = min(versions, key=_version)
    problems = []
    if _version(floor.group(1)) != _version(lowest):
        problems.append(f"pyproject.toml: requires-python >={floor.group(1)}"
                        f", but CI's lowest tested Python is {lowest}")
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        with open(readme, encoding="utf-8") as handle:
            for stated in README_FLOOR_RE.findall(handle.read()):
                if _version(stated) != _version(floor.group(1)):
                    problems.append(f"README.md: says Python {stated}+, "
                                    "but requires-python is "
                                    f">={floor.group(1)}")
    return problems


def run_checks(root: str = REPO_ROOT) -> List[str]:
    """All problems found across the documentation set (empty = pass)."""
    problems = []
    files = markdown_files(root)
    if not files:
        return [f"no documentation files found under {root}"]
    readme = os.path.join(root, "README.md")
    if readme not in files:
        problems.append("README.md is missing")
    for path in files:
        rel = os.path.relpath(path, root)
        for target, reason in broken_links(path):
            problems.append(f"{rel}: broken link {target!r} ({reason})")
    if readme in files:
        for name in undocumented_subcommands(readme, cli_subcommands()):
            problems.append(
                f"README.md: CLI subcommand {name!r} is undocumented "
                f"(expected the text 'facile {name}')")
    problems.extend(api_conformance_problems(root))
    problems.extend(serve_flag_problems(root))
    problems.extend(metrics_conformance_problems(root))
    problems.extend(knob_problems(root))
    problems.extend(section_ref_problems(root))
    problems.extend(python_floor_problems(root))
    problems.extend(stats_cache_problems(root))
    problems.extend(flag_problems(root))
    return problems


def main() -> int:
    problems = run_checks()
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    files = len(markdown_files())
    commands = len(cli_subcommands())
    print(f"check_docs: OK ({files} files, {commands} CLI subcommands "
          "documented, all internal links resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
