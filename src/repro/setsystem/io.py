"""Plain-text and JSON (de)serialization of set systems.

The text format mirrors the classic rail/airline set-cover benchmark files:

    n m
    <set 0 elements, space separated>
    ...
    <set m-1 elements>

Empty sets are encoded as blank lines.  The JSON format is the obvious
``{"n": ..., "sets": [[...], ...]}`` document.  For families too large to
(de)serialize element-by-element, use the packed shard repository format
instead (:mod:`repro.setsystem.shards`).

Both formats have one parser, :func:`load_rows`, which returns the
instance as ``(n, rows)`` with the rows as plain lists and validates
only the document's shape; the elements are checked by whoever consumes
the rows (:class:`SetSystem` for :func:`load`, the shard writer's chunk
kernel for ``repro shard create``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.setsystem.set_system import SetSystem

__all__ = [
    "dumps_text", "loads_text", "dumps_json", "loads_json", "save", "load", "load_rows",
]


def dumps_text(system: SetSystem) -> str:
    """Serialize to the plain-text benchmark format.

    Parameters
    ----------
    system:
        The instance to serialize.

    Returns
    -------
    str
        The text document, newline-terminated.

    Examples
    --------
    >>> print(dumps_text(SetSystem(3, [[0, 1], [], [2]])), end="")
    3 3
    0 1
    <BLANKLINE>
    2
    """
    lines = [f"{system.n} {system.m}"]
    for r in system.sets:
        lines.append(" ".join(str(e) for e in sorted(r)))
    return "\n".join(lines) + "\n"


def loads_text(text: str) -> SetSystem:
    """Parse the plain-text benchmark format.

    Parameters
    ----------
    text:
        A document produced by :func:`dumps_text` (or a classic benchmark
        file with the same layout).

    Returns
    -------
    SetSystem
        The parsed instance.

    Raises
    ------
    ValueError
        On an empty document, malformed header, or a body whose line
        count disagrees with the header's ``m``.

    Examples
    --------
    >>> system = loads_text("2 2\\n0 1\\n\\n")
    >>> system.sets
    (frozenset({0, 1}), frozenset())
    >>> loads_text("2 9\\n0\\n")
    Traceback (most recent call last):
        ...
    ValueError: expected 9 set lines, found 1
    """
    return SetSystem(*_text_rows(text))


def _text_rows(text: str) -> "tuple[int, list[list[int]]]":
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty set-system document")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    body = lines[1 : 1 + m]
    if len(body) != m:
        raise ValueError(f"expected {m} set lines, found {len(body)}")
    return n, [list(map(int, line.split())) for line in body]


def dumps_json(system: SetSystem) -> str:
    """Serialize to a JSON document.

    Examples
    --------
    >>> dumps_json(SetSystem(3, [[2, 0]]))
    '{"n": 3, "sets": [[0, 2]]}'
    """
    return json.dumps(
        {"n": system.n, "sets": [sorted(r) for r in system.sets]}
    )


def loads_json(text: str) -> SetSystem:
    """Parse the JSON document format.

    Raises
    ------
    ValueError
        When the document is not an object with an integer ``n`` and a
        ``sets`` array, or when a set is malformed.

    Examples
    --------
    >>> loads_json('{"n": 3, "sets": [[0, 2]]}').sets
    (frozenset({0, 2}),)
    >>> loads_json('{"n": 2.7, "sets": [[0]]}')
    Traceback (most recent call last):
        ...
    ValueError: JSON set system 'n' must be an integer, got 2.7
    """
    return SetSystem(*_json_rows(text))


def _json_rows(text: str) -> "tuple[int, list]":
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "sets" not in doc:
        raise ValueError("JSON set system must have 'n' and 'sets' keys")
    n, sets = doc["n"], doc["sets"]
    if type(n) is not int:  # no bool, float or string
        raise ValueError(f"JSON set system 'n' must be an integer, got {n!r}")
    if not isinstance(sets, list):
        raise ValueError(
            f"JSON set system 'sets' must be an array of sets, "
            f"got {type(sets).__name__}"
        )
    return n, sets


def save(system: SetSystem, path: "str | Path") -> None:
    """Write a system to ``path``; format chosen by suffix (.json or text)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(dumps_json(system))
    else:
        path.write_text(dumps_text(system))


def load_rows(path: "str | Path") -> "tuple[int, list]":
    """Read an instance file as ``(n, rows)``; format chosen by suffix.

    The one parser of both formats.  Rows come back as plain lists,
    exactly as the document holds them — unsorted, possibly with
    duplicates, and with their elements not yet checked.

    Raises
    ------
    ValueError
        When the document's shape is malformed (see :func:`loads_json`
        and :func:`loads_text`).
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return _json_rows(text)
    return _text_rows(text)


def load(path: "str | Path") -> SetSystem:
    """Read a system from ``path``; format chosen by suffix (.json or text)."""
    return SetSystem(*load_rows(path))
