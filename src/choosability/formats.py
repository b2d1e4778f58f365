"""JSON and plain-text interchange formats for instances and certificates.

Serialization is deterministic: keys are emitted in a fixed order with no
whitespace variance, so identical inputs produce byte-identical files on
every run and platform.
"""

from __future__ import annotations

import json
import os
import stat
import sys

from .instances import ListAssignment
from .solver import ColorabilityResult

INSTANCE_FORMAT_VERSION = 1


class FormatError(ValueError):
    """An instance or certificate file violates the documented schema."""


def json_line(value) -> str:
    """`value` as one line of compact JSON: the form of every JSON file and
    every `--json` output."""
    return json.dumps(value, separators=(",", ":")) + "\n"


# -- instances -----------------------------------------------------------------

def dumps_instance(assignment: ListAssignment) -> str:
    out = {
        "format_version": INSTANCE_FORMAT_VERSION,
        "n": assignment.n,
        "c": assignment.c,
        "k": assignment.k,
        "num_colors": assignment.num_colors,
        "lists": assignment.lists,
        "meta": assignment.meta if assignment.meta is not None else {},
    }
    return json_line(out)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nesting is too deep") from exc
    except ValueError as exc:  # the interpreter's limit on int literal digits
        raise FormatError("not valid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def loads_instance(text: str) -> ListAssignment:
    """Read an instance file: check what JSON adds to a `ListAssignment` and
    re-raise the type's checks as a `FormatError`, naming the first fault read."""
    data = _parse_json(text)
    _require(isinstance(data, dict), "instance must be a JSON object")
    for key in ("format_version", "n", "c", "k", "num_colors", "lists"):
        _require(key in data, f"missing required field '{key}'")
    version = data["format_version"]
    _require(type(version) is int and version == INSTANCE_FORMAT_VERSION,
             f"unsupported format_version {version!r}")
    n, k, lists = data["n"], data["k"], data["lists"]
    _require(type(n) is int and n >= 0, f"field 'n' must be a nonnegative integer, got {n!r}")
    # the type checks the header first, then the lists before the first one
    # that is no array of k colors; a bad array of lists is named after the header
    family = lists if isinstance(lists, list) and len(lists) == n else []
    shaped = next((v for v, lst in enumerate(family)
                   if not (isinstance(lst, list) and len(lst) == k)), len(family))
    meta = data.get("meta")
    try:
        assignment = ListAssignment(k=k, c=data["c"], num_colors=data["num_colors"],
                                    lists=family[:shaped],
                                    meta=meta if isinstance(meta, dict) and meta else None)
    except ValueError as exc:  # a header field, ColorOutOfRange or a list out of order
        raise FormatError(str(exc)) from exc
    _require(isinstance(lists, list), "field 'lists' must be an array")
    _require(len(lists) == n, f"expected {n} lists, found {len(lists)}")
    if shaped < n:
        _require(isinstance(lists[shaped], list), f"lists[{shaped}] must be an array")
        raise FormatError(f"lists[{shaped}] has {len(lists[shaped])} colors, expected k={k}")
    _require(meta is None or isinstance(meta, dict), "field 'meta' must be an object")
    return assignment


def instance_to_text(assignment: ListAssignment) -> str:
    """Plain-text export: header 'n c k num_colors', then one
    space-separated color list per vertex."""
    lines = [f"{assignment.n} {assignment.c} {assignment.k} {assignment.num_colors}"]
    lines.extend(" ".join(str(color) for color in lst) for lst in assignment.lists)
    return "\n".join(lines) + "\n"


# -- certificates ----------------------------------------------------------------

def dumps_certificate(result: ColorabilityResult) -> str:
    if result.colorable:
        out = {"colorable": True, "coloring": list(result.coloring)}
    else:
        violator_s, neighborhood = result.violator
        out = {
            "colorable": False,
            "violator_S": list(violator_s),
            "neighborhood": list(neighborhood),
        }
    return json_line(out)


def loads_certificate(text: str) -> ColorabilityResult:
    data = _parse_json(text)
    _require(isinstance(data, dict), "certificate must be a JSON object")
    _require("colorable" in data, "missing required field 'colorable'")
    if data["colorable"] is True:
        coloring = data.get("coloring")
        _require(isinstance(coloring, list) and set(map(type, coloring)) <= {int},
                 "field 'coloring' must be an array of integers")
        return ColorabilityResult(coloring=tuple(coloring))
    _require(data["colorable"] is False, "field 'colorable' must be a boolean")
    for key in ("violator_S", "neighborhood"):
        value = data.get(key)
        _require(isinstance(value, list) and set(map(type, value)) <= {int},
                 f"field '{key}' must be an array of integers")
    return ColorabilityResult(
        violator=(tuple(data["violator_S"]), tuple(data["neighborhood"]))
    )


# -- files ------------------------------------------------------------------------

def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename over the
    file a symlink names, so a failed run never leaves a partial output
    file; a target that exists but is not a regular file (a FIFO, a device,
    /dev/stdout) is written in place. A new file gets mode 0o666 less the
    umask, as `open` would make it; a replaced file keeps its permission
    bits, and a second hard link to it keeps the old bytes, since the rename
    is what makes the write atomic."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    tmp_path = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                if mode is not None:
                    os.fchmod(fd, mode & 0o777)
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        # name the path asked for, not the temp file's random name
        raise type(exc)(exc.errno, exc.strerror, path) from None
