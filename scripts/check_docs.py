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
   (a doc cannot advertise a metric the registry never exports).
5. **Serve flags** — the flag table at the top of ``docs/SERVICE.md``
   has one ``| `--flag` |`` row per long option of ``facile serve``
   in :func:`repro.cli.build_parser` (``--help`` aside), and no row
   for an option the command does not accept.

Run directly (exits non-zero and lists problems on failure)::

    python scripts/check_docs.py

or through the test suite (``tests/test_docs.py``).
"""

import os
import re
import sys
from typing import Iterable, List, Tuple

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
