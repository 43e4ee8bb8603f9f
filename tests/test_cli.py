"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.days == 42
        assert args.seed == 11

    def test_predict_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--model", "transformer"])

    def test_demo_args(self):
        args = build_parser().parse_args(["demo", "--query", "Q7", "--rows", "50"])
        assert args.query == "Q7"
        assert args.rows == 50

    def test_replay_serve_defaults(self):
        args = build_parser().parse_args(["replay-serve"])
        assert args.concurrency == 8
        assert args.days == 3
        assert args.model == "always"

    def test_serve_alias(self):
        args = build_parser().parse_args(["serve", "--concurrency", "4"])
        assert args.func.__name__ == "cmd_replay_serve"
        assert args.concurrency == 4


class TestCommands:
    def test_analyze_runs(self, capsys):
        code = main(["analyze", "--days", "12", "--users", "6", "--tables", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recurring_fraction" in out

    def test_predict_runs_flat_model(self, capsys):
        code = main(
            [
                "predict",
                "--days", "16",
                "--users", "6",
                "--tables", "4",
                "--model", "lr",
                "--window", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out and "f1=" in out

    def test_demo_runs(self, capsys):
        code = main(["demo", "--query", "Q7", "--rows", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "parse  0.0%" in out or "parse 0.0%" in out.replace("  ", " ")

    def test_replay_serve_runs(self, capsys):
        code = main(
            [
                "replay-serve",
                "--concurrency", "4",
                "--days", "2",
                "--per-day", "8",
                "--rows", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Maxson server status" in out
        assert "hit_ratio" in out
        assert "midnight cycles" in out

    def test_replay_serve_process_backed_shards(self, capsys):
        """Each shard starts its own process pool's workers."""
        code = main(
            [
                "replay-serve",
                "--shards", "2",
                "--scan-workers", "2",
                "--worker-backend", "process",
                "--days", "1",
                "--per-day", "6",
                "--rows", "40",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and " 0 failed" in out and "(0 mismatched)" in out
