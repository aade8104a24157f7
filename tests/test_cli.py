"""Command-line interface."""

import argparse

import pytest

from repro.cli import _COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_has_a_handler(self):
        [subparsers] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(_COMMANDS)

    def test_serve_is_not_a_subcommand(self):
        # parse only: were serve a subcommand, main() would start its
        # long-running daemon
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve"])
        assert exit_info.value.code == 2

    def test_trace_is_not_a_subcommand(self, capsys):
        # a traced run is `run --trace`
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["trace", "gzip_like"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip_like"])
        assert args.workload == "gzip_like"
        assert args.ib == "ibtc"
        assert args.scale == "small"

    def test_experiments_scale(self):
        args = build_parser().parse_args(["experiments"])
        assert args.scale == "small"
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiments", "--scale", "huge"])
        assert exit_info.value.code == 2

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x", "--ib", "oracle"])

    def test_engine_flag(self):
        for command in (["run", "x"], ["experiments"]):
            args = build_parser().parse_args(command)
            assert args.engine is None  # resolved via REPRO_ENGINE later
            for engine in ("oracle", "threaded"):
                args = build_parser().parse_args(
                    command + ["--engine", engine]
                )
                assert args.engine == engine

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x", "--engine", "jit"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--engine", "jit"])

    def test_engine_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        assert "--engine" in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip_like" in out
        assert "x86_p4" in out

    def test_run(self, capsys):
        code = main(
            ["run", "eon_like", "--scale", "tiny", "--ib", "sieve",
             "--returns", "fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead" in out
        assert "sieve(512)" in out

    def test_run_with_oracle_engine_matches_threaded(self, capsys):
        import json

        payloads = {}
        for engine in ("oracle", "threaded"):
            assert main(
                ["run", "mcf_like", "--scale", "tiny", "--json",
                 "--engine", engine]
            ) == 0
            payloads[engine] = json.loads(capsys.readouterr().out)
        assert payloads["oracle"] == payloads["threaded"]

    def test_experiments_unknown_subset(self, capsys):
        assert main(["experiments", "--only", "e1,e99"]) == 2
        assert "e99" in capsys.readouterr().err

    def test_experiments_executor(self, capsys, monkeypatch, tmp_path):
        from repro.eval.runner import clear_caches

        monkeypatch.chdir(tmp_path)  # results/ and results/.cache land in tmp
        assert main(["experiments", "--only", "e1", "--scale", "tiny",
                     "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "indirect-branch characteristics" in captured.out
        assert "unique after dedup" in captured.out
        assert "[ 12/12]" in captured.err  # per-cell progress
        assert (tmp_path / "results" / "e1_ib_characteristics.csv").exists()
        assert list((tmp_path / "results" / ".cache").glob("*/*.json"))
        # second invocation is served from the disk cache
        clear_caches()
        assert main(["experiments", "--only", "e1", "--scale", "tiny",
                     "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "12 from cache, 0 simulated (100% cache hits)" in captured.out
        assert captured.err == ""  # --quiet

    def test_compile(self, tmp_path, capsys):
        source = tmp_path / "p.mc"
        source.write_text("int main() { print_int(1); return 0; }")
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert ".text" in out
        assert "main:" in out

    def test_compile_to_file(self, tmp_path):
        source = tmp_path / "p.mc"
        source.write_text("int main() { return 0; }")
        output = tmp_path / "p.s"
        assert main(["compile", str(source), "-o", str(output)]) == 0
        assert "main:" in output.read_text()

    def test_asm_run_roundtrip(self, tmp_path, capsys):
        source = tmp_path / "p.mc"
        source.write_text('int main() { print_str("hi"); return 3; }')
        assembly = tmp_path / "p.s"
        main(["compile", str(source), "-o", str(assembly)])
        code = main(["asm", str(assembly), "--run"])
        assert code == 3
        assert "hi" in capsys.readouterr().out


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        assert main(["run", "mcf_like", "--scale", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "mcf_like"
        assert payload["overhead"] > 1.0
        assert payload["sdt_cycles"] > payload["native_cycles"]
        assert "app" in payload["breakdown"]


class TestAnalyze:
    def test_analyze_workload_text(self, capsys):
        assert main(["analyze", "eon_like"]) == 0
        out = capsys.readouterr().out
        assert "IB sites" in out
        assert "indirect-call" in out

    def test_analyze_json_shape(self, capsys):
        import json

        assert main(["analyze", "mcf_like", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"summary", "functions", "sites"}
        assert payload["summary"]["ib_sites"] == len(payload["sites"])
        for site in payload["sites"]:
            assert site["role"] in {
                "return", "indirect-call", "jump-table", "computed-jump"
            }

    def test_analyze_minic_file(self, tmp_path, capsys):
        source = tmp_path / "p.mc"
        source.write_text("int main() { print_int(1); return 0; }")
        assert main(["analyze", str(source)]) == 0
        assert "return" in capsys.readouterr().out


class TestLint:
    def test_lint_clean_workload_exits_zero(self, capsys):
        assert main(["lint", "gzip_like"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_dirty_asm_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(".text\nmain:\nnop\n")   # falls off end of .text
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "text-fallthrough" in out

    def test_lint_check_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(".text\nmain:\nnop\n")
        # the selected check does not fire on this program
        assert main(
            ["lint", str(bad), "--check", "store-to-text"]
        ) == 0

    def test_lint_json_shape(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.s"
        bad.write_text(".text\nmain:\nnop\n")
        assert main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["errors"] >= 1
        assert payload["diagnostics"][0]["check"] == "text-fallthrough"


class TestCrossval:
    def test_crossval_workload(self, capsys):
        assert main(["crossval", "eon_like", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "SOUND" in out

    def test_crossval_json(self, capsys):
        import json

        assert main(
            ["crossval", "mcf_like", "--scale", "tiny", "--json"]
        ) == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["all_sound"] is True
        assert payload["workload"] == "mcf_like"
