"""File formats: field snapshots, nested key-value configs, CSV, JSON, manifests.

A snapshot holds one real scalar field, the flow's and the elliptic
solver's potential phi (omega = ghat_t + i ddbar phi is the whole state).
Its layout (all little-endian):

    bytes 0..15   fixed header: magic b"CRFS", version u16, kind u16
                  (always 0, a scalar field), n u16, naxes u16,
                  flags u32 (bit 0: trailing footer present)
    descriptor    naxes * u32 per-axis resolution, naxes * f64 periods,
                  u32 active-axis bitmask
    payload       float64 values in C order on the storage grid (axes
                  outside the active mask carry one node)
    footer        two f64 (t, dt), only when flags bit 0 is set

Config files are a line-oriented nested key-value format:

    section {
      key = value [value ...]
      subsection { ... }
    }

with ``#`` comments; values parse as int, float, complex, true/false, or
bare strings; repeated keys or sections collect into lists. Writes are
deterministic (insertion order, 17 significant digits for floats).

Every file, JSON records included, is written whole: to a temporary file
beside it, then renamed over it. A write that fails leaves the old file and
no temporary one. A process killed outright between the two (SIGKILL runs no
cleanup) leaves the old file whole and its temporary ``<path>.tmp.<pid>``.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import ChartMismatch
from .geometry import ScalarField, TorusChart

_MAGIC = b"CRFS"
_VERSION = 1
# the one snapshot kind, a real scalar field
_SCALAR = 0


def _atomic_write(path, payload):
    # write beside ``path``, then rename over it; when either raises, ``path``
    # keeps its old bytes and the temporary file goes
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, record):
    """``record`` as indented JSON with sorted keys and a final newline."""
    _atomic_write(path, (json.dumps(record, indent=1, sort_keys=True) + "\n").encode("utf-8"))


def write_snapshot(path, field, footer=None):
    """Write the ScalarField ``field``, with the footer (t, dt) if given;
    any other field is a TypeError."""
    if type(field) is not ScalarField:
        raise TypeError(f"a snapshot holds a ScalarField, not {type(field).__name__}")
    chart = field.chart
    flags = 1 if footer is not None else 0
    head = struct.pack(
        "<4sHHHHI", _MAGIC, _VERSION, _SCALAR, chart.n, chart.naxes, flags
    )
    desc = struct.pack(f"<{chart.naxes}I", *chart.resolution)
    desc += struct.pack(f"<{chart.naxes}d", *chart.periods)
    mask = 0
    for a in chart.active_axes:
        mask |= 1 << a
    desc += struct.pack("<I", mask)
    body = field.values.astype("<f8").tobytes(order="C")
    if footer is not None:
        body += struct.pack("<dd", *footer)
    _atomic_write(path, head + desc + body)


def read_snapshot(path, chart=None, want_footer=False):
    """The ScalarField stored at ``path`` (and its footer with ``want_footer``).

    Every malformed file raises ValueError naming the path: a cut, a bad
    magic or version, a kind other than the scalar one, a header whose sizes
    disagree with the file's length, a chart other than ``chart``
    (ChartMismatch) and a non-finite payload. Sizes are checked against the
    file before anything is allocated from them.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    def unpack(fmt, off):
        try:
            return struct.unpack_from(fmt, raw, off)
        except struct.error:
            raise ValueError(
                f"{path}: snapshot truncated at {len(raw)} bytes"
            ) from None

    magic, version, kind, n, naxes, flags = unpack("<4sHHHHI", 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a field snapshot")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if kind != _SCALAR:
        raise ValueError(f"{path}: unknown snapshot kind {kind}")
    if naxes != 2 * n:
        raise ValueError(f"{path}: {naxes} axes for complex dimension {n}")
    off = 16
    resolution = unpack(f"<{naxes}I", off)
    off += 4 * naxes
    periods = unpack(f"<{naxes}d", off)
    off += 8 * naxes
    (mask,) = unpack("<I", off)
    off += 4
    active = tuple(a for a in range(naxes) if mask & (1 << a))
    count = math.prod(resolution[a] for a in active)
    size = off + 8 * count + (16 if flags & 1 else 0)
    if len(raw) != size:
        raise ValueError(f"{path}: snapshot is {len(raw)} bytes, its header needs {size}")
    try:
        file_chart = TorusChart(n, resolution, periods, active)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if chart is not None:
        if chart != file_chart:
            raise ChartMismatch(f"{path}: snapshot chart differs from the expected one")
        file_chart = chart
    arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
    off += 8 * count
    # the field copies the payload out of the file's bytes, once, and tests
    # the copy for finiteness
    try:
        field = ScalarField(file_chart, arr.reshape(file_chart.shape))
    except ValueError:
        raise ValueError(f"{path}: snapshot payload is not finite") from None
    if want_footer:
        if not flags & 1:
            raise ValueError(f"{path}: snapshot has no footer")
        footer = unpack("<dd", off)
        return field, footer
    return field


# -- nested key-value config -----------------------------------------------------


def _parse_scalar(tok):
    low = tok.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float, complex):
        try:
            return cast(tok)
        except ValueError:
            continue
    return tok


def _store(mapping, key, value):
    if key in mapping:
        prev = mapping[key]
        if isinstance(prev, list):
            prev.append(value)
        else:
            mapping[key] = [prev, value]
    else:
        mapping[key] = value


def _tokenize(text):
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        line = line.replace("{", " { ").replace("}", " } ").replace("=", " = ")
        tokens.extend(line.split())
    return tokens


def parse_config(text):
    """Parse the nested key-value format; braces may share lines with keys."""
    tokens = _tokenize(text)
    root = {}
    stack = [root]
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "}":
            if len(stack) == 1:
                raise ValueError("unmatched closing brace")
            stack.pop()
            i += 1
            continue
        if tok in ("{", "="):
            raise ValueError(f"dangling {tok!r} in config")
        follow = tokens[i + 1] if i + 1 < len(tokens) else None
        if follow == "{":
            section = {}
            _store(stack[-1], tok, section)
            stack.append(section)
            i += 2
            continue
        if follow != "=":
            raise ValueError(f"expected '=' or '{{' after {tok!r}")
        i += 2
        vals = []
        while i < len(tokens):
            nxt = tokens[i]
            if nxt in ("{", "}", "="):
                break
            second = tokens[i + 1] if i + 1 < len(tokens) else None
            if vals and second in ("=", "{"):
                break  # next token starts a new key or section
            vals.append(_parse_scalar(nxt))
            i += 1
        if not vals:
            raise ValueError(f"missing value for {tok!r}")
        _store(stack[-1], tok, vals[0] if len(vals) == 1 else tuple(vals))
    if len(stack) != 1:
        raise ValueError("unclosed section at end of file")
    return root


def load_config(path, section=None):
    """The parsed file, or its top-level ``section`` checked by `validate_config`."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = parse_config(fh.read())
    return tree if section is None else validate_config(tree, section)


# -- scenario schema ---------------------------------------------------------------


def _rule(noun, ok, convert=lambda v: v):
    def check(v):
        if not ok(v):
            raise ValueError(f"expected {noun}")
        return convert(v)
    return check


def _finite(v, types=(int, float)):
    try:
        return type(v) in types and math.isfinite(v.real) and math.isfinite(v.imag)
    except OverflowError:  # an integer beyond the float range
        return False


def _one_of(*names):
    return _rule("one of " + ", ".join(names), lambda v: type(v) is str and v in names)


def _tuple_of(check, per_axis=False):
    # with per_axis a single value, meaning every axis, stays single
    return lambda v: (tuple(map(check, v)) if type(v) is tuple
                      else check(v) if per_axis else (check(v),))


_INTEGER = _rule("an integer", lambda v: type(v) is int)
_NUMBER = _rule("a finite number", _finite, float)
_POSITIVE = _rule("a positive number", lambda v: _finite(v) and v > 0, float)
_FLAG = _rule("true or false", lambda v: type(v) is bool)
_NAME = _rule("a name", lambda v: type(v) is str)
_REQUIRED, _REPEATED = "required", "repeated"

# section -> key -> (check, rule[, kind]). The check is a function or the name of a
# subsection. The rule is _REQUIRED, _REPEATED (a list when given), None (optional;
# the constructor fed by the key holds its default) or the default, which for a
# subsection is itself checked. A third item names the one recipe kind reading the key.
SCHEMA = {
    "scenario": {"T0": (_POSITIVE, 100.0), "t_end": (_POSITIVE, None), "seed": (_INTEGER, 0),
                 "chart": ("chart", _REQUIRED), "recipe": ("recipe", {}),
                 "monitors": ("monitors", {})},
    "chart": {"n": (_INTEGER, _REQUIRED), "resolution": (_tuple_of(_INTEGER, True), 64),
              "periods": (_tuple_of(_POSITIVE, True), None),
              "active_axes": (_tuple_of(_INTEGER), None)},
    "recipe": {"kind": (_one_of("explicit", "random"), "explicit"),  # first: others test it
               "kahler": (_FLAG, None),
               "base": (_tuple_of(_rule("a finite number", lambda v: _finite(v, (int, float, complex)),
                                        complex)), None, "explicit"),
               "perturbation": ("perturbation", _REPEATED, "explicit"),
               "scale": (_NUMBER, None, "random"), "peaked": (_FLAG, None, "random")},
    "perturbation": {"i": (_INTEGER, 0), "j": (_INTEGER, 0), "amplitude": (_NUMBER, _REQUIRED),
                     "wavevector": (_tuple_of(_INTEGER), _REQUIRED), "phase": (_NUMBER, None),
                     "profile": (_one_of("cos", "peaked"), None), "sharpness": (_NUMBER, None)},
    "monitors": {"tolerance": (_POSITIVE, None),
                 "patience": (_rule("a positive integer", lambda v: type(v) is int and v > 0), None)},
    "elliptic": {"seed": (_INTEGER, 0), "normalization": (_one_of("mean", "sup"), None),
                 "method": (_one_of("newton-continuation", "gill-flow"), None),
                 "chart": ("chart", _REQUIRED), "recipe": ("recipe", {}), "rhs": ("rhs", {})},
    "rhs": {"perturbation": ("perturbation", _REPEATED)},
    "surface": {"name": (_NAME, "surface"), "vol0": (_NUMBER, _REQUIRED),
                "pairing": (_NUMBER, _REQUIRED), "c1sq": (_NUMBER, _REQUIRED),
                "divisor": ("divisor", _REPEATED), "flags": ("flags", None)},
    "divisor": {"name": (_NAME, _REQUIRED), "d_self": (_INTEGER, _REQUIRED),
                "d_dot_K": (_INTEGER, _REQUIRED), "omega0_vol": (_NUMBER, _REQUIRED)},
    # -inf is the literal spelling of negative Kodaira dimension
    "flags": {"minimal": (_FLAG, False), "kahler": (_FLAG, None),
              "kodaira": (_rule("-inf, 0, 1 or 2", lambda v: type(v) in (int, float)
                                and v in (-math.inf, 0, 1, 2), float), -math.inf),
              "class_vii_b2": (_rule("an integer or none", lambda v: type(v) is int or v == "none",
                                     lambda v: None if v == "none" else v), None)},
}


def validate_config(tree, section):
    """The top-level ``section`` of a parsed config checked against SCHEMA, with its
    defaults filled in; ValueError names the key path of any entry it refuses."""
    return _validate(tree, {section: (section, _REQUIRED)}, "")[section]


def _validate(mapping, table, path):
    if type(mapping) is not dict:
        raise ValueError(f"{path}: expected a section")
    for key, value in mapping.items():
        if key not in table:
            kind = "section" if type(value) is dict else "key"
            raise ValueError(f"{path}.{key}".lstrip(".") + f": unknown {kind}")
    out = {}
    for key, (check, rule, *only) in table.items():
        where = f"{path}.{key}".lstrip(".")
        if key not in mapping:
            if rule == _REQUIRED:
                raise ValueError(f"{where}: missing")
            if rule not in (None, _REPEATED):
                out[key] = _entry(check, rule, where)
            continue
        if only and out["kind"] != only[0]:
            raise ValueError(f"{where}: only read when kind = {only[0]}")
        entries = mapping[key] if type(mapping[key]) is list else [mapping[key]]
        if rule != _REPEATED and len(entries) > 1:
            raise ValueError(f"{where}: given {len(entries)} times")
        done = [_entry(check, e, f"{where}[{i}]" if rule == _REPEATED else where)
                for i, e in enumerate(entries)]
        out[key] = done if rule == _REPEATED else done[0]
    return out


def _entry(check, value, where):
    if type(check) is str:
        return _validate(value, SCHEMA[check], where)
    try:
        return check(value)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return format(v, ".17g").replace("(", "").replace(")", "")
    return str(v)


def dump_config(mapping, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in mapping.items():
        entries = value if isinstance(value, list) else [value]
        for entry in entries:
            if isinstance(entry, dict):
                lines.append(f"{pad}{key} {{")
                lines.append(dump_config(entry, indent + 1))
                lines.append(f"{pad}}}")
            elif isinstance(entry, tuple):
                lines.append(f"{pad}{key} = " + " ".join(format_value(x) for x in entry))
            else:
                lines.append(f"{pad}{key} = {format_value(entry)}")
    return "\n".join(lines)


def write_config(path, mapping):
    _atomic_write(path, (dump_config(mapping) + "\n").encode("utf-8"))


# -- CSV ---------------------------------------------------------------------------


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    columns = lines[0].split(",")
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    return columns, rows


# -- reports and manifests -----------------------------------------------------------


def write_reports(path, reports):
    blocks = []
    for rep in reports:
        blocks.append("\n".join(rep.lines()))
    _atomic_write(path, ("\n\n".join(blocks) + "\n").encode("utf-8"))


def content_hash(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        h.update(chunk)
        h.update(b"\x00")
    return h.hexdigest()


def write_manifest(out_dir, subcommand, version, seed=None, scenario_path=None,
                   extra=None, resume_path=None):
    """Manifest is written before any heavy compute starts. The input hash
    covers the bytes of the scenario file and of the snapshot resumed from."""
    os.makedirs(out_dir, exist_ok=True)
    chunks = [subcommand, version, str(seed)]
    for path in (scenario_path, resume_path):
        if path is not None:
            with open(path, "rb") as fh:
                chunks.append(fh.read())
    manifest = {
        "manifest": {
            "subcommand": subcommand,
            "tool_version": version,
            "seed": -1 if seed is None else int(seed),
            "scenario": "-" if scenario_path is None else str(scenario_path),
            "input_hash": content_hash(*chunks),
        }
    }
    if resume_path is not None:
        manifest["manifest"]["resume"] = str(resume_path)
    if extra:
        manifest["manifest"].update(extra)
    path = os.path.join(out_dir, "manifest.cfg")
    write_config(path, manifest)
    return manifest
