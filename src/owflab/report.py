"""The one report renderer: every owflab command's report and the verify-all
report are written by ``render``, with ``Table`` as the row type."""

from __future__ import annotations

import csv
import itertools
import json
import time
from typing import NamedTuple, TextIO


class Table(NamedTuple):
    """A report table: ``columns`` are its CSV header and the keys of its
    JSON row objects."""

    columns: tuple[str, ...]
    rows: list[tuple]


def _plain(value):
    """A value as it stands in a CSV cell or the comment line."""
    if isinstance(value, bool):
        return int(value)
    if value is None:
        return ""
    if isinstance(value, dict):
        return json.dumps(value)
    return value


class _RowObjects(list):
    """A Table's rows as JSON objects, each made when the encoder reaches it.

    The pure-Python encoder, which ``iterencode`` always runs, reads a list
    only through ``if not lst`` and ``for value in lst``; the list's own
    storage stays empty."""

    def __init__(self, table: Table):
        super().__init__()
        self.table = table

    def __len__(self):
        return len(self.table.rows)

    def __iter__(self):
        columns = self.table.columns
        return (dict(zip(columns, row)) for row in self.table.rows)


def render(fmt: str, command: str, fields: dict, out: TextIO, *,
           timestamp: bool = True) -> None:
    """Write one report to the text stream ``out``: the scalars and Tables
    in ``fields``, in order.

    JSON is ``timestamp`` and then ``fields``, each Table as a list of row
    objects.  CSV is a ``# generated`` line, a ``# owflab COMMAND k=v ...``
    line of the scalars (none when there are none), then each Table as a
    header and its rows, each Table after the first under ``# NAME``.
    The text goes to ``out`` as it is serialized; it is never held whole,
    and neither are a Table's row objects."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if fmt == "json":
        payload = {"timestamp": stamp} if timestamp else {}
        for name, value in fields.items():
            if isinstance(value, Table):
                value = _RowObjects(value)
            payload[name] = value
        # Join the encoder's small chunks before writing: an unbuffered
        # stream, such as stdout under PYTHONUNBUFFERED, pays for each write.
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while text := "".join(itertools.islice(chunks, 4096)):
            out.write(text)
        out.write("\n")
        return
    if timestamp:
        out.write(f"# generated {stamp}\n")
    scalars = [f"{k}={_plain(v)}" for k, v in fields.items() if not isinstance(v, Table)]
    if scalars:
        out.write(f"# owflab {command} {' '.join(scalars)}\n")
    writer = csv.writer(out, lineterminator="\n")
    tables = [(k, v) for k, v in fields.items() if isinstance(v, Table)]
    for i, (name, table) in enumerate(tables):
        if i:
            out.write(f"# {name.replace('_', ' ')}\n")
        writer.writerow(table.columns)
        writer.writerows([_plain(v) for v in row] for row in table.rows)
