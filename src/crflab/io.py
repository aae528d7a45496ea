"""File formats: field snapshots, nested key-value configs, CSV, manifests.

Snapshot layout (all little-endian):

    bytes 0..15   fixed header: magic b"CRFS", version u16, kind u16
                  (0 scalar, 1 hermitian, 2 volume), n u16, naxes u16,
                  flags u32 (bit 0: trailing footer present)
    descriptor    naxes * u32 per-axis resolution, naxes * f64 periods,
                  u32 active-axis bitmask
    payload       float64 values in C order on the storage grid (axes
                  outside the active mask carry one node); complex data is
                  interleaved (real, imag)
    footer        two f64 (t, dt), only when flags bit 0 is set

Config files are a line-oriented nested key-value format:

    section {
      key = value [value ...]
      subsection { ... }
    }

with ``#`` comments; values parse as int, float, complex, true/false, or
bare strings; repeated keys or sections collect into lists. Writes are
deterministic (insertion order, 17 significant digits for floats).
"""

import hashlib
import os
import struct

import numpy as np

from .geometry import HermitianMatrixField, ScalarField, TorusChart, VolumeField

_MAGIC = b"CRFS"
_VERSION = 1
_KINDS = {ScalarField: 0, HermitianMatrixField: 1, VolumeField: 2}
_KIND_CLASSES = {0: ScalarField, 1: HermitianMatrixField, 2: VolumeField}


def _atomic_write(path, payload):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_snapshot(path, field, footer=None):
    chart = field.chart
    kind = _KINDS[type(field)]
    flags = 1 if footer is not None else 0
    head = struct.pack(
        "<4sHHHHI", _MAGIC, _VERSION, kind, chart.n, chart.naxes, flags
    )
    desc = struct.pack(f"<{chart.naxes}I", *chart.resolution)
    desc += struct.pack(f"<{chart.naxes}d", *chart.periods)
    mask = 0
    for a in chart.active_axes:
        mask |= 1 << a
    desc += struct.pack("<I", mask)
    vals = field.values
    if np.iscomplexobj(vals):
        payload = np.empty(vals.shape + (2,))
        payload[..., 0] = vals.real
        payload[..., 1] = vals.imag
    else:
        payload = vals
    body = payload.astype("<f8").tobytes(order="C")
    if footer is not None:
        body += struct.pack("<dd", *footer)
    _atomic_write(path, head + desc + body)


def read_snapshot(path, chart=None, want_footer=False):
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
    off = 16
    resolution = unpack(f"<{naxes}I", off)
    off += 4 * naxes
    periods = unpack(f"<{naxes}d", off)
    off += 8 * naxes
    (mask,) = unpack("<I", off)
    off += 4
    active = tuple(a for a in range(naxes) if mask & (1 << a))
    file_chart = TorusChart(n, resolution, periods, active)
    if chart is not None:
        chart.require_same(file_chart)
        file_chart = chart
    cls = _KIND_CLASSES[kind]
    shape = file_chart.shape
    if cls is HermitianMatrixField:
        count = int(np.prod(shape)) * n * n * 2
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        off += 8 * count
        arr = arr.reshape(shape + (n, n, 2))
        field = cls(file_chart, arr[..., 0] + 1j * arr[..., 1])
    else:
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        off += 8 * count
        field = cls(file_chart, arr.reshape(shape).copy())
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
    if low in ("-inf", "inf"):
        return float(low)
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


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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
                   extra=None):
    """Manifest is written before any heavy compute starts."""
    os.makedirs(out_dir, exist_ok=True)
    chunks = [subcommand, version, str(seed)]
    if scenario_path is not None:
        with open(scenario_path, "rb") as fh:
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
    if extra:
        manifest["manifest"].update(extra)
    path = os.path.join(out_dir, "manifest.cfg")
    write_config(path, manifest)
    return manifest
