"""Documentation health: links resolve, CLI subcommands are documented.

Wires ``scripts/check_docs.py`` into tier-1 so README/docs rot fails
the suite, and unit-tests the checker against fabricated breakage so
the green path is known to be meaningful.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))
CHECKER = os.path.join(REPO_ROOT, "scripts", "check_docs.py")


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = load_checker()


class TestRepositoryDocs:
    def test_all_checks_pass(self):
        assert check_docs.run_checks(REPO_ROOT) == []

    def test_cli_subcommands_include_serve_and_bench(self):
        commands = check_docs.cli_subcommands()
        assert "serve" in commands
        assert "bench" in commands
        assert "predict" in commands

    def test_docs_directory_is_covered(self):
        files = {os.path.basename(p)
                 for p in check_docs.markdown_files(REPO_ROOT)}
        assert {"README.md", "ARCHITECTURE.md", "SERVICE.md"} <= files

    def test_script_entry_point(self):
        result = subprocess.run([sys.executable, CHECKER],
                                capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout


class TestCheckerCatchesBreakage:
    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("see [the docs](docs/NOPE.md) and "
                       "[the web](https://example.com)")
        problems = check_docs.broken_links(str(doc))
        assert len(problems) == 1
        assert problems[0][0] == "docs/NOPE.md"

    def test_anchor_only_and_external_links_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[a](#section) [b](mailto:x@y.z) "
                       "[c](http://x) [d](https://x)")
        assert check_docs.broken_links(str(doc)) == []

    def test_anchored_file_link_resolves_on_file_part(self, tmp_path):
        (tmp_path / "other.md").write_text("# hi")
        doc = tmp_path / "doc.md"
        doc.write_text("[ok](other.md#hi) [bad](missing.md#hi)")
        problems = check_docs.broken_links(str(doc))
        assert [target for target, _ in problems] == ["missing.md#hi"]

    def test_undocumented_subcommand_detected(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("only `facile predict` is described here")
        missing = check_docs.undocumented_subcommands(
            str(readme), ["predict", "serve"])
        assert missing == ["serve"]

    def test_run_checks_reports_missing_docs(self, tmp_path):
        problems = check_docs.run_checks(str(tmp_path))
        assert problems  # an empty tree must not look healthy


class TestApiConformance:
    def test_repo_service_doc_conforms(self):
        assert check_docs.api_conformance_problems(REPO_ROOT) == []

    def test_missing_service_doc_reported(self, tmp_path):
        problems = check_docs.api_conformance_problems(str(tmp_path))
        assert problems == ["docs/SERVICE.md is missing "
                            "(the service reference)"]

    def test_undocumented_route_detected(self, tmp_path):
        # A SERVICE.md that documents only part of the served surface:
        # every missing route must be flagged, and a phantom route that
        # the server does not serve must be flagged the other way.
        docs = tmp_path / "docs"
        docs.mkdir()
        from repro.service.serialize import ERROR_CODES
        rows = "\n".join(f"| `{code}` | {status} | x |"
                         for status, code in ERROR_CODES.items())
        (docs / "SERVICE.md").write_text(
            "`GET /v1/health` and `GET /phantom` only\n" + rows + "\n")
        problems = check_docs.api_conformance_problems(str(tmp_path))
        assert any("`POST /v1/predict` is undocumented" in p
                   for p in problems)
        assert any("/phantom" in p and "does not serve" in p
                   for p in problems)

    def flag_table(self, tmp_path, flags):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "SERVICE.md").write_text(
            "| flag | default | meaning |\n|---|---|---|\n"
            + "".join(f"| `{flag}` | x | x |\n" for flag in flags))
        return check_docs.serve_flag_problems(str(tmp_path))

    def test_stale_flag_row_detected(self, tmp_path):
        problems = self.flag_table(
            tmp_path, check_docs.serve_flags() + ["--max-wait-ms"])
        assert problems == ["docs/SERVICE.md: the flag table lists "
                            "`--max-wait-ms`, which `facile serve` "
                            "does not accept"]

    def test_undocumented_flag_detected(self, tmp_path):
        flags = [flag for flag in check_docs.serve_flags()
                 if flag != "--max-batch"]
        problems = self.flag_table(tmp_path, flags)
        assert problems == ["docs/SERVICE.md: `facile serve --max-batch` "
                            "has no row in the flag table"]

    def test_metric_catalog_drift_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OBSERVABILITY.md").write_text(
            "only `facile_requests_total` and the phantom "
            "`facile_made_up_total` here; label hints like "
            "`facile_span_duration_ms{span=...}` parse too\n")
        problems = check_docs.metrics_conformance_problems(
            str(tmp_path))
        assert any("`facile_retries_total` is undocumented" in p
                   for p in problems)
        assert any("`facile_made_up_total`" in p and
                   "not in the metric catalog" in p for p in problems)
        assert not any("facile_span_duration_ms" in p
                       for p in problems)

    def test_repo_observability_doc_conforms(self):
        assert check_docs.metrics_conformance_problems(REPO_ROOT) == []

    def test_missing_observability_doc_reported(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        problems = check_docs.metrics_conformance_problems(
            str(tmp_path))
        assert problems == ["docs/OBSERVABILITY.md is missing "
                            "(the observability reference)"]

    def test_error_code_drift_detected(self, tmp_path):
        from repro.service.server import ROUTES
        docs = tmp_path / "docs"
        docs.mkdir()
        routes = " ".join(f"`{method} {path}`"
                          for method, paths in ROUTES.items()
                          for path in paths)
        (docs / "SERVICE.md").write_text(
            routes + "\n| `bad_request` | 400 | x |\n"
            "| `teapot` | 418 | x |\n")
        problems = check_docs.api_conformance_problems(str(tmp_path))
        assert any("'overloaded'" in p and "missing" in p
                   for p in problems)
        assert any("'teapot'" in p and "does not emit" in p
                   for p in problems)
