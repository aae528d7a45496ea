"""Deterministic SVG line plots of trajectory CSV columns.

Hand-rolled writer: fixed canvas, fixed fonts, coordinates rounded to
1e-3 px, so identical inputs produce identical bytes.
"""

from .io import read_csv, _atomic_write

_WIDTH, _HEIGHT = 800.0, 500.0
_MARGIN = 70.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x):
    return format(x, ".3f")


def _tick(x):
    return format(x, ".6g")


def plot_csv(csv_path, columns, out_path):
    """Line plot of the named columns against t."""
    header, rows = read_csv(csv_path)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    try:
        xi = header.index("t")
        idxs = [header.index(c) for c in columns]
    except ValueError as err:
        raise ValueError(f"{csv_path}: missing column ({err})") from None

    xs = [r[xi] for r in rows]
    series = [[r[i] for r in rows] for i in idxs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(min(s) for s in series)
    y_hi = max(max(s) for s in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_HEIGHT - _MARGIN)}" '
        f'x2="{_fmt(_WIDTH - _MARGIN)}" y2="{_fmt(_HEIGHT - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" '
        f'x2="{_fmt(_MARGIN)}" y2="{_fmt(_HEIGHT - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    font = 'font-family="monospace" font-size="12"'
    parts.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_HEIGHT - _MARGIN + 20)}" {font}>'
        f"{_tick(x_lo)}</text>"
    )
    parts.append(
        f'<text x="{_fmt(_WIDTH - _MARGIN - 40)}" y="{_fmt(_HEIGHT - _MARGIN + 20)}" '
        f"{font}>{_tick(x_hi)}</text>"
    )
    parts.append(
        f'<text x="{_fmt(5.0)}" y="{_fmt(_HEIGHT - _MARGIN)}" {font}>{_tick(y_lo)}</text>'
    )
    parts.append(f'<text x="{_fmt(5.0)}" y="{_fmt(_MARGIN)}" {font}>{_tick(y_hi)}</text>')
    parts.append(
        f'<text x="{_fmt(_WIDTH / 2 - 10)}" y="{_fmt(_HEIGHT - 20)}" {font}>'
        "t</text>"
    )
    for k, (name, ys) in enumerate(zip(columns, series)):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN + 5)}" y="{_fmt(_MARGIN + 15 * k)}" '
            f'{font} fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write(out_path, "\n".join(parts).encode("utf-8"))
    return out_path
