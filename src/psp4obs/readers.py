"""The parsing that the readers of all input files share.

Each input file is read in the ``with`` block of an :class:`InputFile`,
which puts the path in front of every fault, so that the command line
prints one ``error:`` line.  It imports nothing else from the package.
"""

import io
import json
import re
from contextlib import AbstractContextManager

import numpy as np

# ASCII integers only: int() also takes underscores, spaces and other digits
_INT = r"-?[0-9]+"
_ONE_INT, _INT_ROW = re.compile(_INT), re.compile(f"{_INT}(?: {_INT})*")
_JSON_KINDS = {int: "an integer", bool: "true or false", list: "a list",
               dict: "an object"}


def parse_int(text) -> int:
    """An ASCII integer; any other text is a ValueError."""
    if not _ONE_INT.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_ints(text) -> tuple:
    """The whitespace-separated ASCII integers of ``text``."""
    return tuple(map(parse_int, text.split()))


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``, which may not repeat a key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def checked(value, kind, what):
    """``value`` if its type is exactly ``kind`` (so a bool is no int, nor
    a float), else a ValueError naming ``what``."""
    if type(value) is not kind:
        got = (_JSON_KINDS[type(value)] if isinstance(value, (list, dict))
               else json.dumps(value))
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, not {got}")
    return value


def int_list(value, what) -> tuple:
    """A JSON list of integers as a tuple."""
    for x in checked(value, list, what):
        if type(x) is not int:
            checked(x, int, f"{what} entry")
    return tuple(value)


class InputFile(AbstractContextManager):
    """The file at ``path``, read in a ``with`` block that a KeyError,
    ValueError or OverflowError leaves as one ValueError ``PATH: where:
    message``, or ``PATH: message`` while ``where`` is None."""

    def __init__(self, path):
        self.path, self.where = path, None

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (KeyError, ValueError, OverflowError)):
            text = (f"missing key {exc.args[0]!r}"
                    if isinstance(exc, KeyError) else exc)
            at = "" if self.where is None else f"{self.where}: "
            raise ValueError(f"{self.path}: {at}{text}") from None

    def text(self) -> str:
        """The whole file as UTF-8, with universal newlines, read whole so
        that a byte that is not UTF-8 is told by its offset."""
        with open(self.path, encoding="utf-8") as fh:
            return fh.read()

    def json(self, tag) -> dict:
        """The JSON document, an object whose ``format`` is ``tag``; a
        fault in its syntax is at the top level."""
        text = self.text()
        self.where = "top level"
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError as exc:  # nested past the parser's limit
            raise ValueError(str(exc)) from None
        if checked(doc, dict, "the file").get("format") != tag:
            raise ValueError(f"format {doc.get('format')!r} is not {tag!r}")
        return doc

    def lines(self, kind, keys) -> tuple:
        """The lines of a text file headed ``kind`` and ``key=<n>`` once
        for each of ``keys``, and those integers in the order of ``keys``."""
        lines = [ln.rstrip("\n") for ln in io.StringIO(self.text())]
        head = lines[0].split() if lines else []
        fields = dict(kv.partition("=")[::2] for kv in head[1:])
        # each key once: as many fields as keys, and no other key
        if (head[:1] != [kind] or len(head) != len(keys) + 1
                or set(fields) != set(keys)
                or not all(map(_ONE_INT.fullmatch, fields.values()))):
            raise ValueError(f"line 1: expected '{kind} "
                             + " ".join(f"{k}=<n>" for k in keys) + "'")
        return lines, [int(fields[k]) for k in keys]

    def check_numbering(self, entries, out_of_order):
        """A ValueError unless the ids run 1..n in order and each id that
        an entry refers to is in its range.  ``entries`` holds one
        ``(where, id, refs)`` per entry in file order, each ref ``(label,
        ids, lo, hi)``; ``out_of_order`` is formatted with ``got``, ``pos``
        and ``n``.  ``where`` is None after the check."""
        for pos, (self.where, got, refs) in enumerate(entries, 1):
            if got != pos:
                raise ValueError(out_of_order.format(got=got, pos=pos,
                                                     n=len(entries)))
            for label, ids, lo, hi in refs:
                bad = [i for i in ids if not lo <= i <= hi]
                if bad:
                    raise ValueError(f"{label} {bad[0]} is not in {lo}..{hi}")
        self.where = None


def matrix_block(lines, pos, rank) -> tuple:
    """The ``rank`` x ``rank`` int64 block at ``lines[pos:]``, and the
    index of the line after it."""
    if pos + rank > len(lines):
        raise ValueError(f"line {len(lines) + 1}: the file ends inside a "
                         f"matrix")
    rows = [ln.split() for ln in lines[pos:pos + rank]]
    for i, row in enumerate(rows):
        if len(row) != rank or not _INT_ROW.fullmatch(" ".join(row)):
            raise ValueError(f"line {pos + i + 1}: expected {rank} integers")
    try:
        return np.array(rows, dtype=np.int64), pos + rank
    except OverflowError:
        i = next(i for i, row in enumerate(rows)
                 if any(not -2**63 <= int(x) < 2**63 for x in row))
        raise ValueError(f"line {pos + i + 1}: an entry is beyond "
                         f"int64") from None
