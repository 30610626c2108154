"""Reading and writing contact traces in a CRAWDAD-like text format.

The real evaluation traces (CRAWDAD ``cambridge/haggle/imote/infocom``
and ``upmc/content/imote/cambridge``) are distributed as whitespace-
separated contact tables.  We read the common layout::

    <node_a> <node_b> <start_seconds> <end_seconds> [ignored columns...]

Lines starting with ``#`` (or blank) are skipped.  Writing emits the
same four columns, so traces round-trip exactly.  When the genuine
CRAWDAD files are available they load through :func:`load_trace`
unchanged; the shipped experiments use the synthetic stand-ins from
:mod:`repro.traces.synthetic` (see DESIGN.md §3).
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import List, Union

from .trace import Contact, ContactTrace, make_contact

PathLike = Union[str, Path]


class TraceFormatError(Exception):
    """Raised when a trace file cannot be parsed."""


def parse_trace(
    text: str, name: str = "trace", min_duration: float = 0.0
) -> ContactTrace:
    """Parse a contact table from a string.

    Args:
        text: the file contents.
        name: label for the resulting trace.
        min_duration: drop contacts shorter than this many seconds
            (some raw traces contain zero-length artifacts).

    Raises:
        TraceFormatError: on malformed rows.
    """
    contacts: List[Contact] = []
    nodes: set = set()
    for lineno, raw in enumerate(_io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4:
            raise TraceFormatError(
                f"line {lineno}: expected >= 4 columns, got {len(fields)}"
            )
        try:
            a, b = int(fields[0]), int(fields[1])
            start, end = float(fields[2]), float(fields[3])
        except ValueError as err:
            raise TraceFormatError(f"line {lineno}: {err}") from err
        nodes.add(a)
        nodes.add(b)
        if a == b:
            # Some raw logs contain self-sightings; skip but keep node.
            continue
        if end - start <= min_duration:
            continue
        contacts.append(make_contact(a, b, start, end))
    return ContactTrace(name=name, nodes=tuple(nodes), contacts=tuple(contacts))


def load_trace(
    path: PathLike, name: str | None = None, min_duration: float = 0.0
) -> ContactTrace:
    """Load a trace from a file; the name defaults to the file stem."""
    path = Path(path)
    label = name if name is not None else path.stem
    return parse_trace(
        path.read_text(), name=label, min_duration=min_duration
    )


def dump_trace(trace: ContactTrace) -> str:
    """Serialize a trace to the four-column text format.

    The node universe is listed in a header comment for readers;
    :func:`parse_trace` takes nodes from the contact rows only, so a
    node without contacts does not survive a round trip.
    """
    lines = [
        f"# trace: {trace.name}",
        f"# nodes: {' '.join(str(n) for n in trace.nodes)}",
        "# a b start end",
    ]
    for contact in trace.contacts:
        # repr() round-trips floats exactly, so load(dump(trace))
        # reproduces the contacts bit-for-bit.
        lines.append(
            f"{contact.a} {contact.b} {contact.start!r} {contact.end!r}"
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: ContactTrace, path: PathLike) -> None:
    """Write a trace to disk in the text format."""
    Path(path).write_text(dump_trace(trace))

