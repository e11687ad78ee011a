"""The one report renderer: every owflab command's report and the verify-all
report are written by ``render``, with ``Table`` as the row type."""

from __future__ import annotations

import csv
import io
import json
import time
from typing import NamedTuple


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


def render(fmt: str, command: str, fields: dict, *, timestamp: bool = True) -> str:
    """Serialize one report: the scalars and Tables in ``fields``, in order.

    JSON is ``timestamp`` and then ``fields``, each Table as a list of row
    objects.  CSV is a ``# generated`` line, a ``# owflab COMMAND k=v ...``
    line of the scalars (none when there are none), then each Table as a
    header and its rows, each Table after the first under ``# NAME``."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if fmt == "json":
        payload = {"timestamp": stamp} if timestamp else {}
        for name, value in fields.items():
            if isinstance(value, Table):
                value = [dict(zip(value.columns, row)) for row in value.rows]
            payload[name] = value
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
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
    return out.getvalue()
