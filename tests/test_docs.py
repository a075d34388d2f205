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

    def test_metric_label_drift_detected(self, tmp_path):
        # Both directions: a catalogued label the row omits, and a
        # documented label the catalog does not have.
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OBSERVABILITY.md").write_text(
            "| metric | kind | labels | meaning |\n|---|---|---|---|\n"
            "| `facile_requests_total` | counter | — | x |\n"
            "| `facile_retries_total` | counter | `uarch` | x |\n"
            "| `facile_batch_window_size` | histogram | `uarch` | x |\n")
        problems = check_docs.metrics_conformance_problems(
            str(tmp_path))
        assert "docs/OBSERVABILITY.md: `facile_requests_total` is " \
            "labelled `endpoint`, which its row omits" in problems
        assert "docs/OBSERVABILITY.md: the row of `facile_retries_total` " \
            "names label `uarch`, which the catalog does not" in problems
        assert not any("facile_batch_window_size" in p for p in problems)

    def test_repo_observability_doc_conforms(self):
        assert check_docs.metrics_conformance_problems(REPO_ROOT) == []

    def test_missing_observability_doc_reported(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        problems = check_docs.metrics_conformance_problems(
            str(tmp_path))
        assert problems == ["docs/OBSERVABILITY.md is missing "
                            "(the observability reference)"]

    def knob_tree(self, tmp_path, source, readme):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(source)
        (tmp_path / "README.md").write_text(readme)
        return check_docs.knob_problems(str(tmp_path))

    def test_undocumented_knob_detected(self, tmp_path):
        problems = self.knob_tree(
            tmp_path, 'os.environ.get("REPRO_LOG")\n'
                      'os.environ.get("REPRO_HIDDEN_KNOB")\n',
            "set `REPRO_LOG=debug` for more output\n")
        assert problems == ["src/: `REPRO_HIDDEN_KNOB` is named in "
                            "neither README.md nor docs/*.md"]

    def test_stale_knob_doc_detected(self, tmp_path):
        problems = self.knob_tree(
            tmp_path, 'os.environ.get("REPRO_LOG")\n',
            "set `REPRO_LOG`, or the removed `REPRO_ENGINE_WORKERS`\n")
        assert problems == ["README.md: names `REPRO_ENGINE_WORKERS`, "
                            "which appears nowhere in src/"]

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


class TestStatsCacheKeys:
    def stats_tree(self, tmp_path, keys):
        """A SERVICE.md whose ``/v1/stats`` example has a ``cache`` of
        *keys* (none when None), and a later section with a decoy."""
        docs = tmp_path / "docs"
        docs.mkdir()
        cache = "" if keys is None else '  "cache": {%s},\n' % ", ".join(
            f'"{key}": 0' for key in keys)
        (docs / "SERVICE.md").write_text(
            "## `GET /v1/stats`\n\n```json\n"
            '{"uarchs": {"SKL": {\n' + cache +
            '  "batcher": {"requests": 0}}}}\n```\n\n'
            "## `GET /v1/metrics`\n\n"
            '`{"cache": {"hits": 1, "misses": 0}}` is not the example\n')
        return check_docs.stats_cache_problems(str(tmp_path))

    @staticmethod
    def core_keys():
        from repro.engine.columnar import ColumnarCore
        from repro.uarch import uarch_by_name
        return list(ColumnarCore(uarch_by_name("SKL")).stats())

    def test_matching_keys_pass(self, tmp_path):
        assert self.stats_tree(tmp_path, self.core_keys()) == []

    def test_extra_key_detected(self, tmp_path):
        assert self.stats_tree(
            tmp_path, self.core_keys() + ["raw_hits"]) == [
            "docs/SERVICE.md: the `/v1/stats` example's `cache` lists "
            "`raw_hits`, which `ColumnarCore.stats()` does not report"]

    def test_missing_key_detected(self, tmp_path):
        keys = [key for key in self.core_keys() if key != "misses"]
        assert self.stats_tree(tmp_path, keys) == [
            "docs/SERVICE.md: the `/v1/stats` example's `cache` omits "
            "`misses`, a key of `ColumnarCore.stats()`"]

    def test_missing_example_detected(self, tmp_path):
        # The decoy after the section does not stand in for it.
        assert self.stats_tree(tmp_path, None) == [
            "docs/SERVICE.md: the `GET /v1/stats` section has no "
            'example `"cache"` object']


class TestBacktickedFlags:
    def flag_tree(self, tmp_path, guide):
        """A README naming a known option, and a docs page of *guide*."""
        (tmp_path / "README.md").write_text(
            "Run `facile table2 --size 10 --workers 2`.\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "GUIDE.md").write_text(guide)
        return check_docs.flag_problems(str(tmp_path))

    def test_known_flags_pass(self, tmp_path):
        assert self.flag_tree(
            tmp_path, "`facile serve --port 0 --no-shard`, or "
                      "`--uarch SKL`\n") == []

    def test_unknown_flag_detected(self, tmp_path):
        assert self.flag_tree(
            tmp_path, "pick one with `facile predict --core object`\n") \
            == ["docs/GUIDE.md: `--core` is an option of no `facile` "
                "subcommand"]

    def test_flag_in_a_fenced_block_is_ignored(self, tmp_path):
        assert self.flag_tree(
            tmp_path, "```sh\necho `facile predict --core object`\n"
                      "```\n") == []


class TestSectionReferences:
    def ref_tree(self, tmp_path, readme, script=""):
        (tmp_path / "README.md").write_text(readme)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "GUIDE.md").write_text("# Guide\n\n## Known section\n")
        (tmp_path / "ROADMAP.md").write_text("# Roadmap\n\n### Baseline\n")
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "tool.py").write_text(script)
        return check_docs.section_ref_problems(str(tmp_path))

    def test_existing_headings_pass(self, tmp_path):
        assert self.ref_tree(
            tmp_path,
            'see `docs/GUIDE.md` § "Known section" and `ROADMAP.md` §\n'
            '"Baseline"\n',
            '"""Read ``ROADMAP.md`` § "Baseline"."""\n') == []

    def test_unknown_heading_detected(self, tmp_path):
        assert self.ref_tree(
            tmp_path, 'see `docs/GUIDE.md` § "Gone section"\n') == [
            'README.md: `docs/GUIDE.md` has no heading "Gone section"']

    def test_unquoted_heading_detected_in_scripts(self, tmp_path):
        problems = self.ref_tree(
            tmp_path, "", '"""See ``ROADMAP.md`` § Performance."""\n')
        assert problems == ['scripts/tool.py: `ROADMAP.md` § names no '
                            'heading (expected § "Heading")']

    def test_missing_file_detected(self, tmp_path):
        assert self.ref_tree(
            tmp_path, 'see `docs/NOPE.md` § "Intro"\n') == [
            'README.md: `docs/NOPE.md` § "Intro" names a missing file']


class TestPythonFloor:
    def floor_tree(self, tmp_path, floor, matrix, readme=""):
        (tmp_path / "pyproject.toml").write_text(
            f'[project]\nname = "x"\nrequires-python = ">={floor}"\n')
        workflows = tmp_path / ".github" / "workflows"
        workflows.mkdir(parents=True, exist_ok=True)
        (workflows / "ci.yml").write_text(
            "jobs:\n  test:\n    strategy:\n      matrix:\n"
            f"        python-version: {matrix}\n")
        (tmp_path / "README.md").write_text(readme)
        return check_docs.python_floor_problems(str(tmp_path))

    def test_floor_matching_the_lowest_tested_python_passes(self, tmp_path):
        assert self.floor_tree(tmp_path, "3.9", '["3.12", "3.9", "3.11"]',
                               "Python 3.9+ is sufficient.") == []

    def test_floor_below_the_matrix_detected(self, tmp_path):
        assert self.floor_tree(tmp_path, "3.8", '["3.9", "3.10"]') == [
            "pyproject.toml: requires-python >=3.8, but CI's lowest "
            "tested Python is 3.9"]

    def test_versions_compare_numerically(self, tmp_path):
        # "3.10" sorts before "3.9" as text, not as a version.
        assert self.floor_tree(tmp_path, "3.10", '["3.9", "3.10"]') == [
            "pyproject.toml: requires-python >=3.10, but CI's lowest "
            "tested Python is 3.9"]
        assert self.floor_tree(tmp_path, "3.10", '["3.11", "3.10"]') == []

    def test_stale_readme_floor_detected(self, tmp_path):
        assert self.floor_tree(tmp_path, "3.9", '["3.9"]',
                               "Python 3.8+ is sufficient.") == [
            "README.md: says Python 3.8+, but requires-python is >=3.9"]
