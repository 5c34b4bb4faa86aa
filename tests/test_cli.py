from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from restfuzz import cli
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.mock_service import BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig

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


def modules_after(statement):
    """The ``restfuzz`` and ``numpy`` modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    ))
    code = (f"{statement}; import sys; print(' '.join(name for name in sys.modules "
            "if name.startswith(('restfuzz', 'numpy'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestColdStart:
    def test_serve_loads_neither_numpy_nor_the_fuzzer(self):
        loaded = modules_after("import restfuzz.cli, restfuzz.mock_service")
        assert "restfuzz.mock_service" in loaded
        assert not loaded & {"numpy", "restfuzz.orchestrator"}

    def test_the_fuzzer_does_not_load_the_mock_target(self):
        loaded = modules_after("import restfuzz.orchestrator")
        assert "numpy" in loaded
        assert "restfuzz.mock_service" not in loaded


class TestFuzzArguments:
    def test_missing_budget_exits_2_before_reading_the_spec(self, tmp_path, capsys):
        argv = ["fuzz", "--spec", str(tmp_path / "missing.json"),
                "--target", "http://127.0.0.1:9"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "need a budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [
        "--max-requests=0", "--max-requests=-5", "--duration=0", "--duration=-1",
        "--train-every-requests=0", "--train-interval=0", "--max-sequence-length=0",
    ])
    def test_a_value_that_is_not_positive_exits_2(self, option, tmp_path, capsys):
        argv = ["fuzz", "--spec", str(packaged_grammar_path()), "--target", "http://127.0.0.1:9",
                "--max-requests", "10", "--report-dir", str(tmp_path / "run"), option]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ", "must be positive")
        assert not (tmp_path / "run").exists()

    def test_unsupported_target_exits_2_before_opening_the_report_dir(self, tmp_path, capsys):
        argv = ["fuzz", "--spec", str(packaged_grammar_path()),
                "--target", "http://127.0.0.1:9/api", "--max-requests", "10",
                "--report-dir", str(tmp_path / "run")]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ", "unsupported target url")
        assert not (tmp_path / "run").exists()

    def test_a_report_dir_that_is_a_plain_file_exits_2_and_sends_nothing(
        self, target, tmp_path, capsys
    ):
        plain = tmp_path / "run"
        plain.write_text("")
        assert cli.main(fuzz_argv(target.base_url, plain)) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ")
        assert plain.read_text() == ""
        with HttpClient(target.base_url) as client:
            assert json.loads(client.send(ReadyRequest("GET", "/__coverage")).body) == {}

    def test_auth_token_with_cr_or_lf_exits_2_and_sends_nothing(self, target, tmp_path, capsys):
        argv = fuzz_argv(target.base_url, tmp_path / "run", "--auth-token", "a\nb")
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ", "CR or LF in the auth token")
        assert not (tmp_path / "run").exists()
        with HttpClient(target.base_url) as client:
            assert json.loads(client.send(ReadyRequest("GET", "/__coverage")).body) == {}

    def test_auth_token_latin_1_cannot_encode_exits_2_and_sends_nothing(
        self, target, tmp_path, capsys
    ):
        argv = fuzz_argv(target.base_url, tmp_path / "run", "--auth-token", "\u20ac")
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ", "latin-1 cannot encode")
        assert not (tmp_path / "run").exists()
        with HttpClient(target.base_url) as client:
            assert json.loads(client.send(ReadyRequest("GET", "/__coverage")).body) == {}

    def test_every_config_field_is_the_flag_of_the_same_name(self):
        fuzz = cli._build_parser()._subparsers._group_actions[0].choices["fuzz"]
        flags = {action.dest: action.option_strings for action in fuzz._actions}
        for field in dataclasses.fields(FuzzConfig):
            assert flags[field.name] == ["--" + field.name.replace("_", "-")]
        # The flags' defaults are the config's defaults.
        args = fuzz.parse_args(["--spec", "s.json", "--target", "http://x",
                                "--max-requests", "1"])
        assert FuzzConfig(**{field.name: getattr(args, field.name)
                             for field in dataclasses.fields(FuzzConfig)}) == FuzzConfig(
            target="http://x", max_requests=1)

    def test_dump_weights_without_report_dir_exits_2(self, capsys):
        argv = ["fuzz", "--spec", str(packaged_grammar_path()), "--target", "http://127.0.0.1:9",
                "--max-requests", "10", "--dump-weights"]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ", "report_dir")


class TestServeArguments:
    def test_a_port_in_use_exits_2(self, target, capsys):
        assert cli.main(["serve", "--port", str(target.port)]) == 2
        assert_one_line(capsys.readouterr().err, "serve: ", "in use")

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_a_port_out_of_range_exits_2(self, port, capsys):
        assert cli.main(["serve", "--port", port]) == 2
        assert_one_line(capsys.readouterr().err, "serve: ", "0-65535")

    def test_an_unknown_bug_id_exits_2(self, capsys):
        assert cli.main(["serve", "--port", "0", "--bugs", "b-uaf,b-typo"]) == 2
        assert_one_line(capsys.readouterr().err, "serve: ", "b-typo")


def assert_one_line(err, prefix, reason=""):
    assert err.startswith(prefix) and reason in err
    assert err.count("\n") == 1, err


SPEC_FILES = {
    "missing": None,
    "not-json": "{not json",
    "not-a-grammar": '{"templates": 3}',
}


RECORD = '{"template_id": "GET /groups", "method": "GET", "path_template": "/groups"'


def records_then(line):
    """A replay record, a blank line, then ``line`` as line 3."""
    return f'{RECORD}, "query": {{"page": "1"}}, "produces": null}}\n\n{line}\n'


# id -> (file content, what the one line on stderr names)
REPLAY_FILES = {
    "missing": (None, ""),
    "empty": ("", "no replay records"),
    "blank-lines-only": ("\n  \n\n", "no replay records"),
    "not-json": ("{not json", "line 1"),
    "bad-json-line": (records_then("{not json"), "line 3"),
    "empty-object": (records_then("{}"), "line 3"),
    "list": (records_then("[1]"), "line 3"),
    "string": (records_then('"text"'), "line 3"),
    "method-not-a-string": (records_then(RECORD.replace('"GET",', "7,") + "}"), "line 3"),
    "query-value-not-a-string": (records_then(RECORD + ', "query": {"page": 1}}'), "line 3"),
    "body-not-an-object": (records_then(RECORD + ', "body": []}'), "line 3"),
    "produces-without-pointer": (
        records_then(RECORD + ', "produces": {"type": "group"}}'), "line 3"),
    "produces-pointer-not-a-json-pointer": (
        records_then(RECORD + ', "produces": {"type": "group", "pointer": "id"}}'), "line 3"),
}


class TestInputFiles:
    @pytest.mark.parametrize("content", SPEC_FILES.values(), ids=SPEC_FILES.keys())
    def test_bad_spec_exits_2(self, content, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        argv = ["fuzz", "--spec", str(spec), "--target", "http://127.0.0.1:9",
                "--max-requests", "10"]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "fuzz: ")

    @pytest.mark.parametrize("content,reason", REPLAY_FILES.values(), ids=REPLAY_FILES.keys())
    def test_bad_replay_file_exits_2(self, content, reason, tmp_path, capsys):
        replay = tmp_path / "replay.jsonl"
        if content is not None:
            replay.write_text(content)
        argv = ["replay", "--file", str(replay), "--target", "http://127.0.0.1:9"]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "replay: ", reason)

    def test_unsupported_replay_target_exits_2(self, tmp_path, capsys):
        replay = tmp_path / "replay.jsonl"
        replay.write_text("")
        argv = ["replay", "--file", str(replay), "--target", "http://127.0.0.1:9/api"]
        assert cli.main(argv) == 2
        assert_one_line(capsys.readouterr().err, "replay: ", "unsupported target url")
