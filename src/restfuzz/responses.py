"""HTTP outcome classification shared by the client, mock and fuzz loop."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ResponseClass(enum.Enum):
    PASS_2XX = "2xx"
    REJECT_4XX = "4xx"
    ERROR_5XX = "5xx"
    TRANSPORT = "transport"

    # Members are singletons compared by identity, so the identity hash is
    # a valid one; it runs in C, where ``Enum.__hash__`` runs in Python, and
    # every request looks a class up in a Counter or a dict key.
    __hash__ = object.__hash__


def classify_status(status: int) -> ResponseClass:
    """Map a status code onto the 2xx/4xx/5xx taxonomy.

    1xx/3xx fall outside the taxonomy; they are counted as rejections (the
    request did not trigger a service behavior).  The mock target never
    emits them.
    """
    if 200 <= status < 300:
        return ResponseClass.PASS_2XX
    if 500 <= status < 600:
        return ResponseClass.ERROR_5XX
    return ResponseClass.REJECT_4XX


@dataclass(frozen=True)
class ResponseRecord:
    """One classified HTTP outcome."""

    status: int | None
    klass: ResponseClass
    body: str = ""
    latency: float = 0.0

    @staticmethod
    def from_status(status: int, body: str = "", latency: float = 0.0) -> "ResponseRecord":
        return ResponseRecord(status, classify_status(status), body, latency)

    @staticmethod
    def transport(detail: str = "") -> "ResponseRecord":
        return ResponseRecord(None, ResponseClass.TRANSPORT, detail, 0.0)
