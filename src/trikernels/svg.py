"""Self-contained SVG output for quivers, trajectories, grids and fans.

Every document is a single file with inline styles and no external
assets, so figures can be diffed as text; the arrow scale and any other
reproduction parameters are recorded in a metadata element.
"""

from __future__ import annotations

import math

import numpy as np


class Projector:
    """Affine map from data coordinates to pixel coordinates (y flipped)."""

    def __init__(self, lo, hi, width=640, margin=30):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        span = np.maximum(self.hi - self.lo, 1e-12)
        self.scale = (width - 2 * margin) / span[0]
        self.width = width
        self.height = int(2 * margin + span[1] * self.scale)
        self.margin = margin

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = self.margin + (pts[:, 0] - self.lo[0]) * self.scale
        y = self.height - self.margin - (pts[:, 1] - self.lo[1]) * self.scale
        return np.column_stack([x, y])


def document(elements, proj: Projector, metadata: dict) -> str:
    meta = " ".join(f'{k}="{v}"' for k, v in metadata.items())
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{proj.width}" '
        f'height="{proj.height}" viewBox="0 0 {proj.width} {proj.height}">\n'
        f"  <metadata>{meta}</metadata>\n"
        f'  <rect width="100%" height="100%" fill="white"/>\n'
    )
    return head + "\n".join("  " + e for e in elements) + "\n</svg>\n"


def quiver(points, vectors, proj: Projector, arrow_scale: float,
           color: str = "#1f4e8c") -> list[str]:
    """Arrows with heads, lengths multiplied by arrow_scale in data units.

    The pixel coordinates of every arrow are one row of an (M, 10) array:
    the line's two ends, then the head's tip and its two base corners.
    An arrow shorter than 1e-9 pixels is drawn as a dot at its start.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vec = np.atleast_2d(np.asarray(vectors, dtype=float)) * arrow_scale
    x0, y0 = proj(pts).T
    x1, y1 = proj(pts + vec).T
    dx, dy = x1 - x0, y1 - y0
    length = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    short = length < 1e-9
    safe = np.where(short, 1.0, length)
    ux, uy = dx / safe, dy / safe
    head = np.where(0.35 * length < 4.0, 0.35 * length, 4.0)
    bx, by = x1 - head * ux, y1 - head * uy
    px, py = -uy, ux
    half = 0.5 * head
    cols = np.column_stack([x0, y0, x1, y1, x1, y1, bx + half * px, by + half * py,
                            bx - half * px, by - half * py])
    used = np.ones(cols.shape, dtype=bool)
    used[short, 2:] = False                # a dot reads its row's first two columns
    c = color.replace("%", "%%")
    dot = f'<circle cx="%.2f" cy="%.2f" r="0.8" fill="{c}"/>'
    arrow = (f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{c}" stroke-width="1"/>\0'
             f'<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{c}"/>')
    text = "\0".join([dot if s else arrow for s in short.tolist()])
    return (text % tuple(cols[used].tolist())).split("\0") if len(cols) else []


def polyline(points, proj: Projector, color: str = "#222222",
             width: float = 1.0) -> str:
    pix = proj(points)
    coords = " ".join(["%.2f,%.2f"] * len(pix)) % tuple(pix.ravel().tolist())
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def dots(points, proj: Projector, color: str = "#000000", radius: float = 3.0) -> list[str]:
    dot = f'<circle cx="%.2f" cy="%.2f" r="{radius}" fill="{color.replace("%", "%%")}"/>'
    return [dot % xy for xy in map(tuple, proj(points).tolist())]


def deformed_grid(transported: np.ndarray, shape, proj: Projector,
                  color: str = "#999999") -> list[str]:
    """Polylines along both lattice directions of a transported 2-d grid."""
    g = transported.reshape(tuple(shape) + (2,))
    out = []
    for i in range(g.shape[0]):
        out.append(polyline(g[i, :, :], proj, color=color, width=0.6))
    for j in range(g.shape[1]):
        out.append(polyline(g[:, j, :], proj, color=color, width=0.6))
    return out


def fan_sheet(sheet: np.ndarray, proj: Projector, color: str) -> list[str]:
    """Curves of one landmark's fan: along time per parameter and across
    parameters at sampled times, forming the characteristic sheet."""
    out = []
    for i in range(sheet.shape[0]):
        arc = sheet[i]
        if np.any(~np.isfinite(arc)):
            continue
        out.append(polyline(arc, proj, color=color, width=0.7))
    stride = max(1, sheet.shape[1] // 16)
    for j in range(0, sheet.shape[1], stride):
        rung = sheet[:, j, :]
        good = np.all(np.isfinite(rung), axis=1)
        if good.sum() >= 2:
            out.append(polyline(rung[good], proj, color=color, width=0.4))
    return out
