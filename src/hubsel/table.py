"""The file dialects shared by every hubsel table and JSON report.

Tables are UTF-8 text with one row per line and fields separated by
``,``. Nothing is quoted, so an id must never contain ``,``, ``\\r`` or
``\\n``, nor NUL, which the ``.npz`` graph cache cannot store, and must
encode as UTF-8; :func:`check_id` holds that rule. Readers skip blank
and whitespace-only lines, and skip line 1 when it equals the table's
header. JSON files are UTF-8, indented by 2, with a trailing newline.
"""

from __future__ import annotations

import json
import re

_ESCAPED = re.compile("[\udc80-\udcff]")


def check_id(ident: str, what: str) -> None:
    """Reject an id that cannot be written as one table field or cached."""
    if "," in ident or "\r" in ident or "\n" in ident or "\x00" in ident:
        raise ValueError(f"{what} {ident!r} contains ',', '\\r', '\\n' or '\\x00'")
    if not ident.isascii():
        try:
            ident.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: from an archive, or argv bytes
            # that are not UTF-8
            raise ValueError(f"{what} {ident!r} is not encodable as UTF-8") from None


def read_rows(path, fields: int | None = None, header: str | None = None, parse=None):
    """Yield ``(lineno, parts)`` for every data row of the table at ``path``,
    or ``(lineno, parse(parts))`` with ``parse`` given.

    A line that is not valid UTF-8 raises ValueError naming the path and
    the row. With ``fields`` given, a row of any other width does too;
    without it the caller checks widths. So does any ValueError that
    ``parse`` raises: it names the fault, this adds the path and the row.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip() or (lineno == 1 and line == header):
                continue
            try:
                # undecodable bytes come through as lone surrogates; an
                # ASCII line can hold none
                if not line.isascii() and _ESCAPED.search(line):
                    raise ValueError("not valid UTF-8")
                parts = line.split(",")
                if fields is not None and len(parts) != fields:
                    raise ValueError(f"expected {fields} fields, got {len(parts)}")
                row = parts if parse is None else parse(parts)
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
            yield lineno, row


def write_rows(path, rows, header: str | None = None) -> None:
    """Write ``rows``, each a sequence of str fields, after an optional header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
