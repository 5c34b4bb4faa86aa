from __future__ import annotations

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from restfuzz import cli
from restfuzz.mock_service import BugConfig, packaged_grammar_path, serve

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def target():
    handle = serve(0, BugConfig())
    yield handle
    handle.stop()


def fuzz_argv(base_url, report_dir, *extra):
    """A short miner run that trains a few rounds inline."""
    return [
        "fuzz",
        "--spec", str(packaged_grammar_path()),
        "--target", base_url,
        "--mode", "miner",
        "--max-requests", "300",
        "--train-every-requests", "100",
        "--train-sync",
        "--report-dir", str(report_dir),
        *extra,
    ]


class TestTrainingLog:
    def test_each_run_logs_only_into_its_own_file(self, target, tmp_path, capsys):
        training_logger = logging.getLogger("restfuzz.training")
        handlers, level = list(training_logger.handlers), training_logger.level

        assert cli.main(fuzz_argv(target.base_url, tmp_path / "one")) == 0
        first = (tmp_path / "one" / "training.log").read_text()
        assert "epoch=" in first
        assert training_logger.handlers == handlers
        assert training_logger.level == level

        assert cli.main(fuzz_argv(target.base_url, tmp_path / "two")) == 0
        assert (tmp_path / "one" / "training.log").read_text() == first
        assert "epoch=" in (tmp_path / "two" / "training.log").read_text()
        assert training_logger.handlers == handlers
        assert training_logger.level == level

    def test_verbose_run_after_plain_run_logs_to_stderr(self, target, tmp_path, capsys):
        root = logging.getLogger()
        handlers, level = list(root.handlers), root.level

        assert cli.main(fuzz_argv(target.base_url, tmp_path / "plain")) == 0
        assert "epoch=" not in capsys.readouterr().err
        assert cli.main(fuzz_argv(target.base_url, tmp_path / "verbose", "--verbose")) == 0
        assert "epoch=" in capsys.readouterr().err
        assert root.handlers == handlers
        assert root.level == level

    @pytest.mark.parametrize("verbose", [False, True])
    def test_epoch_lines_reach_stderr_only_when_verbose(self, target, tmp_path, verbose):
        argv = fuzz_argv(target.base_url, tmp_path, *(["--verbose"] if verbose else []))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "restfuzz.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "epoch=" in (tmp_path / "training.log").read_text()
        assert ("epoch=" in proc.stderr) is verbose


class TestFuzzArguments:
    def test_missing_budget_exits_2_before_reading_the_spec(self, tmp_path, capsys):
        argv = ["fuzz", "--spec", str(tmp_path / "missing.json"),
                "--target", "http://127.0.0.1:9"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "need a budget" in err
        assert "Traceback" not in err
