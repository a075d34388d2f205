"""CLI smoke tests."""

import argparse

import pytest

from repro import cli
from repro.cli import main

#: Every subcommand, in ``facile --help`` order.
SUBCOMMANDS = ("predict", "table1", "table2", "table3", "table4",
               "figure3", "figure4", "figure5", "figure6", "bench",
               "serve", "hunt", "generalize")


class TestPredict:
    def test_predict_from_asm(self, capsys):
        code = main(["predict", "--uarch", "SKL", "--mode", "loop",
                     "--asm", "imul rax, rbx\\nadd rax, rcx\\n"
                              "cmp rax, r14\\njne -14"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted throughput: 4.00" in out
        assert "bottleneck" in out
        assert "Precedence" in out

    def test_predict_from_hex(self, capsys):
        code = main(["predict", "--uarch", "RKL", "--hex", "4801d8"])
        assert code == 0
        assert "add rax, rbx" in capsys.readouterr().out

    def test_predict_requires_input(self, capsys):
        assert main(["predict", "--uarch", "SKL"]) == 2

    def test_predict_from_file(self, tmp_path, capsys):
        path = tmp_path / "block.s"
        path.write_text("add rax, rbx\nadd rcx, rdx\n")
        assert main(["predict", "--file", str(path)]) == 0
        assert "2 instructions" in capsys.readouterr().out


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Rocket Lake" in out and "Sandy Bridge" in out

    def test_table2_single_uarch_small(self, capsys):
        assert main(["table2", "--size", "6", "--uarch", "SKL"]) == 0
        out = capsys.readouterr().out
        assert "Facile" in out and "uiCA" in out

    def test_figure6_small(self, capsys):
        assert main(["figure6", "--size", "8"]) == 0
        assert "SNB -> HSW" in capsys.readouterr().out


class TestHunt:
    def test_hunt_tiny_campaign_with_report(self, tmp_path, capsys):
        out = tmp_path / "hunt.json"
        code = main(["hunt", "--seed", "0", "--budget", "8",
                     "--mode", "unrolled", "--max-witnesses", "2",
                     "--predictors", "Facile", "llvm-mca-15",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "facile hunt: deviation report" in text
        assert f"wrote {out}" in text
        import json
        report = json.loads(out.read_text())
        assert report["schema"] == "facile-hunt-report/v2"
        assert report["config"]["budget"] == 8

    def test_hunt_rejects_unknown_uarch(self, capsys):
        code = main(["hunt", "--budget", "4", "--uarchs", "NOPE"])
        assert code == 2
        assert "unknown µarch" in capsys.readouterr().err

    def test_hunt_rejects_unknown_predictor(self, capsys):
        code = main(["hunt", "--budget", "4",
                     "--predictors", "Facile", "wat"])
        assert code == 2
        assert "unknown predictor" in capsys.readouterr().err

    def test_hunt_known_requires_generalize(self, capsys):
        code = main(["hunt", "--budget", "4", "--known", "x.json"])
        assert code == 2
        assert "--generalize" in capsys.readouterr().err

    def test_hunt_rejects_unreadable_known(self, tmp_path, capsys):
        code = main(["hunt", "--budget", "4", "--generalize",
                     "--known", str(tmp_path / "nope.json")])
        assert code == 2
        assert "--known" in capsys.readouterr().err


class TestGeneralize:
    def test_rejects_missing_report(self, tmp_path, capsys):
        code = main(["generalize", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_rejects_non_report_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else/v1"}')
        code = main(["generalize", str(path)])
        assert code == 2
        assert "not a facile hunt report" in capsys.readouterr().err

    def test_generalizes_a_hunt_report(self, tmp_path, capsys):
        report = tmp_path / "hunt.json"
        assert main(["hunt", "--seed", "0", "--budget", "8",
                     "--mode", "unrolled", "--max-witnesses", "2",
                     "--predictors", "Facile", "llvm-mca-15",
                     "--out", str(report)]) == 0
        capsys.readouterr()
        out = tmp_path / "families.json"
        code = main(["generalize", str(report), "--max-families", "1",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Abstract deviation families" in text
        import json
        generalized = json.loads(out.read_text())
        assert generalized["schema"] == "facile-hunt-report/v2"
        assert generalized["config"]["generalize"] is True
        assert "families" in generalized


class TestParser:
    """``main()`` adds the arguments of the requested subcommand only,
    and they equal :func:`repro.cli.build_parser`'s — the parser
    ``scripts/check_docs.py`` reads for its CLI and serve-flag checks."""

    @staticmethod
    def subparsers(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        raise AssertionError("no subparsers")

    @staticmethod
    def description(cmd):
        """Every option string, default, choice and help text, plus the
        handler and the rendered help."""
        actions = [(a.option_strings, a.dest, a.default, a.choices,
                    a.help, a.nargs, a.type, a.metavar, a.required,
                    a.const) for a in cmd._actions]
        return actions, cmd.get_default("func"), cmd.format_help()

    def built_by_main(self, monkeypatch, argv):
        """The parser ``main(argv)`` builds (it exits while parsing)."""
        built = []
        real = cli.build_parser

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", recording)
        with pytest.raises(SystemExit):
            main(argv)
        (parser,) = built
        return parser

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_main_builds_only_the_requested_subcommand(
            self, name, monkeypatch, capsys):
        parser = self.built_by_main(monkeypatch, [name, "--help"])
        assert "usage: facile " + name in capsys.readouterr().out
        full = self.subparsers(cli.build_parser())
        built = self.subparsers(parser)
        assert tuple(full) == tuple(built) == SUBCOMMANDS
        assert self.description(built[name]) == \
            self.description(full[name])
        for other, cmd in built.items():
            if other != name:
                assert [a.dest for a in cmd._actions] == ["help"], other
