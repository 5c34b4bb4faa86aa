"""A fuzzing run's settings: the modes and the checked configuration.

The module needs neither numpy nor the fuzzer, so the command line builds
its parser, choices and defaults included, from these names alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .client import HttpClient

DEFAULT_MAX_SEQUENCE_LENGTH = 10


class RenderMode(enum.Enum):
    BASELINE = "baseline"
    REC1 = "rec1"
    RECLIST = "reclist"
    MODEL = "model"


# mode name -> (weighted seed selection?, render mode); the model modes train.
MODES: dict[str, tuple[bool, RenderMode]] = {
    "miner": (True, RenderMode.MODEL),
    "baseline": (False, RenderMode.BASELINE),
    "seq-only": (True, RenderMode.BASELINE),
    "model-only": (False, RenderMode.MODEL),
    "rec1": (False, RenderMode.REC1),
    "reclist": (False, RenderMode.RECLIST),
}


@dataclass
class FuzzConfig:
    target: str
    mode: str = "miner"
    max_requests: int | None = None
    duration: float | None = None
    seed: int = 0
    train_interval: float | None = 7200.0
    train_every_requests: int | None = None
    enable_uaf_checker: bool = False
    enable_datadriven_checker: bool = False
    report_dir: Path | str | None = None
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH
    auth_token: str | None = None
    dump_weights: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {sorted(MODES)}")
        if self.max_requests is None and self.duration is None:
            raise ValueError("need a budget: max_requests and/or duration")
        for name in ("max_requests", "duration", "train_every_requests",
                     "train_interval", "max_sequence_length"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.dump_weights and not self.report_dir:
            raise ValueError("dump_weights needs a report_dir to write the weights under")
        # Refuses an unsupported target url or auth token; opens no socket.
        HttpClient(self.target, auth_token=self.auth_token)
