"""Atomic artifact writes: a file is written to ``<path>.tmp`` and renamed
into place, so an output is complete or absent, never partial.

Text is written without newline translation, so CSV rows keep the ``\\r\\n``
terminators of the `csv` module on every platform.
"""

import csv
import io
import json
import os


def write_text_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file renamed into place."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json_atomic(path, payload) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, header, rows) -> None:
    """A header row, then `rows`, in the `csv` module's default dialect."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())
