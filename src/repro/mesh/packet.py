"""Message objects accepted by the mesh network simulator."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Optional

_message_ids = itertools.count()


def as_integer(value: Any, name: str) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming ``name``.

    ``operator.index`` passes ints and numpy integers and rejects the
    floats (NaN included) that ``int()`` would silently truncate; bools
    are ints to it but never a node id, message id or byte count.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index


def byte_length(length: Any) -> int:
    """``length`` as an ``int`` message length, or a ``ValueError``.

    A fractional length would be logged truncated but timed rounded
    up, and NaN would only fail at delivery.
    """
    index = as_integer(length, "length_bytes")
    if index < 0:
        raise ValueError(f"length_bytes must be >= 0, got {index}")
    return index


@dataclass
class NetworkMessage:
    """A message to be carried by the mesh.

    Mirrors the paper's simulator input: "messages defined by their
    source, destination, length and time since the last network
    activity at the source".

    Attributes
    ----------
    src, dst:
        Source and destination node ids.
    length_bytes:
        Payload length in bytes.
    kind:
        Free-form tag describing what the message is (coherence request,
        data reply, MPI point-to-point, ...); carried into the log so
        the analysis can slice by message class.
    payload:
        Opaque model data delivered to the destination handler.
    msg_id:
        Unique id, auto-assigned.
    """

    src: int
    dst: int
    length_bytes: int
    kind: str = "data"
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        self.length_bytes = byte_length(self.length_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkMessage(#{self.msg_id} {self.src}->{self.dst} "
            f"{self.length_bytes}B {self.kind})"
        )
