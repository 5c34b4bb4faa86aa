"""The benchmark's fuzzing child, traced, on a short run.

``bench/fuzz_child.py`` patches ``restfuzz`` names from outside the
package; a rename that breaks one of its hooks fails here, in a few
hundred requests, rather than only in a full benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_reports_layers(tmp_path):
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    try:
        job = {
            "src": str(ROOT / "src"),
            "run_dir": str(tmp_path),
            "trace": True,
            "argv": [
                "fuzz", "--spec", str(packaged_grammar_path()), "--target", handle.base_url,
                "--mode", "miner", "--max-requests", "300", "--seed", "1",  # seed 0 trains no batch
                "--train-every-requests", "100",
                "--enable-uaf-checker", "--enable-datadriven-checker",
                "--report-dir", str(tmp_path),
            ],
        }
        (tmp_path / "job.json").write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "fuzz_child.py"), str(tmp_path / "job.json")],
            capture_output=True, text=True, timeout=120,
        )
    finally:
        handle.stop()
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    layers = result["layers"]
    assert layers["rendering.steps"] > 0
    # One layer per patch site; an import that bypasses a patch reads 0.
    for name in ("grammar.parse_s", "sequences.select_seed.calls", "execution.calls",
                 "collection.record.calls", "checkers.uaf.requests", "recommender.rounds",
                 "model.batch_loss_and_grads.calls"):
        assert layers[name] > 0, name
    # every request of the run plus the reachability probe
    assert layers["client.requests"] == result["requests"] + 1
