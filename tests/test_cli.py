"""Tests for the ``liberate`` command-line interface."""

import pytest

from repro.cli.main import build_parser, main

#: Each technique's success on a plain path and behind the normalizer
#: (benchmarks/results/countermeasures.txt).
COUNTERMEASURES = {
    "ip-low-ttl": ("True", "False"),
    "ip-invalid-version": ("False", "False"),
    "ip-invalid-ihl": ("False", "False"),
    "ip-length-long": ("True", "False"),
    "ip-length-short": ("False", "False"),
    "ip-wrong-protocol": ("True", "False"),
    "ip-wrong-checksum": ("True", "False"),
    "ip-invalid-options": ("False", "False"),
    "ip-deprecated-options": ("False", "False"),
    "tcp-wrong-seq": ("True", "False"),
    "tcp-wrong-checksum": ("True", "False"),
    "tcp-no-ack-flag": ("True", "False"),
    "tcp-invalid-data-offset": ("False", "False"),
    "tcp-invalid-flags": ("True", "False"),
    "ip-fragmentation": ("True", "False"),
    "tcp-segment-split": ("True", "True"),
    "ip-fragment-reorder": ("True", "False"),
    "tcp-segment-reorder": ("True", "False"),
    "flush-pause-after-match": ("True", "True"),
    "flush-pause-before-match": ("True", "True"),
    "flush-rst-after-match": ("True", "False"),
    "flush-rst-before-match": ("True", "False"),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("envs", "run", "detect", "characterize", "table1", "figure4"):
            args = parser.parse_args([command] if command != "trace" else [command, "--out", "x"])
            assert callable(args.func)


class TestCommands:
    def test_envs(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for name in ("testbed", "tmobile", "gfc", "iran", "att", "sprint"):
            assert name in out

    def test_detect_differentiated(self, capsys):
        code = main(["detect", "--env", "testbed", "--host", "video.example.com"])
        assert code == 0
        assert "content-based" in capsys.readouterr().out

    def test_detect_clean_exits_nonzero(self):
        assert main(["detect", "--env", "sprint", "--host", "whatever.org"]) == 1

    def test_characterize(self, capsys):
        code = main(["characterize", "--env", "iran", "--host", "facebook.com"])
        assert code == 0
        out = capsys.readouterr().out
        assert "facebook.com" in out
        assert "rounds=" in out

    def test_characterize_clean_fails(self, capsys):
        code = main(["characterize", "--env", "sprint", "--host", "nothing.org"])
        assert code == 1

    def test_run_fast(self, capsys):
        code = main(["run", "--env", "testbed", "--host", "video.example.com", "--fast"])
        assert code == 0
        assert "deployed:" in capsys.readouterr().out

    def test_run_verbose_lists_techniques(self, capsys):
        main(["run", "--env", "iran", "--host", "facebook.com", "--verbose"])
        out = capsys.readouterr().out
        assert "tcp-segment-split" in out or "tcp-segment-reorder" in out

    def test_unknown_env_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "--env", "nonexistent"])

    def test_trace_save_and_reuse(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        assert main(["trace", "--host", "economist.com", "--out", str(target)]) == 0
        assert target.exists()
        code = main(["detect", "--env", "gfc", "--trace", str(target)])
        assert code == 0

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "liberate" in capsys.readouterr().out

    def test_figure4_small(self, capsys):
        assert main(["figure4", "--trials", "1"]) == 0
        assert "hour" in capsys.readouterr().out

    def test_bilateral(self, capsys):
        assert main(["bilateral"]) == 0
        out = capsys.readouterr().out
        assert "dummy prefix" in out and "rotation" in out

    def test_countermeasures(self, capsys):
        assert main(["countermeasures"]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out and "survivors" in out
        rows = {
            line.split()[0]: tuple(line.split()[2:])
            for line in out.splitlines()
            if line.split() and line.split()[-1] in ("True", "False")
        }
        assert rows == COUNTERMEASURES
        assert (
            "survivors: tcp-segment-split, flush-pause-after-match, flush-pause-before-match"
            in out.splitlines()
        )
