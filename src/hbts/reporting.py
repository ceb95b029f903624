"""Bit-stable report serialization: fixed float formatting, sorted keys, atomic writes."""

from __future__ import annotations

import json
import math
import os
import tempfile


def format_float(x: float) -> str:
    """Render a float with 17 significant digits; non-finite values become null."""
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if not math.isfinite(x):
        return "null"
    s = format(float(x), ".17g")
    # normalize "-0" so reruns cannot differ on signed zero
    return "0" if s == "-0" else s


def dumps(obj, indent: int = 0) -> str:
    """Serialize a report (dict/list/str/int/float/bool/None) to deterministic JSON.

    Keys are emitted sorted, floats via :func:`format_float`.  Complex numbers
    are rejected on purpose: callers store them as explicit re/im pairs.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings, got %r" % (key,))
            items.append("%s  %s: %s" % (pad, json.dumps(key, ensure_ascii=False), dumps(obj[key], indent + 2)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ["%s  %s" % (pad, dumps(v, indent + 2)) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError("unsupported report value of type %s" % type(obj).__name__)


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, report) -> None:
    write_text_atomic(path, dumps(report) + "\n")


def csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        s = format_float(value)
        return s if s != "null" else "nan"
    return str(value)


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")
