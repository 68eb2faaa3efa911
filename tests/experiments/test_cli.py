"""Tests for the command-line interface."""

import pytest

from repro.cli import BENCH, build_parser, main
from repro.experiments.settings import PAPER, QUICK


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.scale == "quick"
        assert args.metrics == ["social_cost", "runtime_s"]
        assert args.csv is None

    def test_scale_choices(self):
        args = build_parser().parse_args(["fig3", "--scale", "paper"])
        assert args.scale == "paper"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--scale", "galactic"])

    def test_metric_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--metrics", "vibes"])

    def test_poa_options(self):
        args = build_parser().parse_args(["poa", "--providers", "6"])
        assert args.providers == 6

    def test_outages_defaults(self):
        args = build_parser().parse_args(["outages"])
        assert args.policy == "failover"
        assert args.mttf == 5.0
        assert args.mttr == 2.0
        assert not args.correlated

    def test_outages_policy_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["outages", "--policy", "pray"])

    @pytest.mark.parametrize("workers", ["4", "1"])
    def test_shard_spool_and_workers_are_exclusive(
        self, capsys, tmp_path, workers
    ):
        with pytest.raises(SystemExit) as exc:
            main(["shard", "--spool", str(tmp_path), "--workers", workers])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_scale_exists(self):
        assert BENCH.repetitions < PAPER.repetitions or (
            BENCH.n_providers < PAPER.n_providers
        )


class TestMain:
    def test_fig2_quick_runs(self, capsys, tmp_path):
        code = main(["fig2", "--scale", "quick", "--csv", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[fig2] social cost" in out
        csv_file = tmp_path / "fig2.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("x,algorithm,")

    def test_poa_runs(self, capsys):
        code = main(["poa", "--providers", "5", "--repetitions", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical_poa" in out
        assert "theorem1_bound" in out

    def test_poa_without_repetitions_is_an_error(self, capsys):
        assert main(["poa", "--repetitions", "0"]) == 2
        assert "error: repetitions must be >= 1, got 0" in capsys.readouterr().err

    def test_custom_metrics(self, capsys):
        code = main(["fig3", "--scale", "quick", "--metrics", "rejected"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected services" in out
        assert "running time" not in out

    def test_outages_runs(self, capsys):
        code = main(["outages", "--nodes", "40", "--epochs", "6",
                     "--mttf", "3", "--mttr", "2", "--policy", "replan"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cloudlet downtime" in out
        assert "mean time to recover" in out

    def test_chart_flag(self, capsys):
        code = main(["fig2", "--scale", "quick", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "*=LCF" in out
        assert "+" in out and "|" in out  # chart frame present
