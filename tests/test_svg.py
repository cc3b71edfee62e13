"""SVG writers: array templates against per-element f-string formatting."""

import math

import numpy as np
import pytest

from trikernels import svg


# --- reference writers: one f-string per coordinate ---------------------------

def _fmt(v):
    return f"{v:.2f}"


def ref_quiver(points, vectors, proj, arrow_scale, color="#1f4e8c"):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vec = np.atleast_2d(np.asarray(vectors, dtype=float)) * arrow_scale
    out = []
    for (x0, y0), (x1, y1) in zip(proj(pts), proj(pts + vec)):
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        if length < 1e-9:
            out.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="0.8" fill="{color}"/>')
            continue
        ux, uy = dx / length, dy / length
        head = min(4.0, 0.35 * length)
        bx, by = x1 - head * ux, y1 - head * uy
        px, py = -uy, ux
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{color}" stroke-width="1"/>')
        out.append(
            f'<polygon points="{_fmt(x1)},{_fmt(y1)} {_fmt(bx + 0.5 * head * px)},'
            f'{_fmt(by + 0.5 * head * py)} {_fmt(bx - 0.5 * head * px)},'
            f'{_fmt(by - 0.5 * head * py)}" fill="{color}"/>')
    return out


def ref_polyline(points, proj, color="#222222", width=1.0):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in proj(points))
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def ref_dots(points, proj, color="#000000", radius=3.0):
    return [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" fill="{color}"/>'
            for x, y in proj(points)]


def ref_deformed_grid(transported, shape, proj, color="#999999"):
    g = transported.reshape(tuple(shape) + (2,))
    return ([ref_polyline(g[i], proj, color=color, width=0.6) for i in range(g.shape[0])]
            + [ref_polyline(g[:, j], proj, color=color, width=0.6) for j in range(g.shape[1])])


def ref_fan_sheet(sheet, proj, color):
    out = [ref_polyline(arc, proj, color=color, width=0.7)
           for arc in sheet if np.all(np.isfinite(arc))]
    for j in range(0, sheet.shape[1], max(1, sheet.shape[1] // 16)):
        rung = sheet[:, j, :]
        good = np.all(np.isfinite(rung), axis=1)
        if good.sum() >= 2:
            out.append(ref_polyline(rung[good], proj, color=color, width=0.4))
    return out


# --- inputs -------------------------------------------------------------------

# lo = 0 and a 580-unit span make the scale exactly 1: pixel x = 30 + x and
# pixel y = 610 - y, so data values pin the pixel values' last digits
UNIT = svg.Projector((0.0, 0.0), (580.0, 580.0))


def boundary_values(rng, m):
    """Values at .xx5 (decimal halves that binary rounds either way), at
    exact binary halves n/8 (round half to even), and below the box,
    where the pixel x is negative."""
    halves = np.round(rng.uniform(-50.0, 600.0, m), 2) + 0.005
    eighths = rng.integers(-400, 4800, m) / 8.0
    below = rng.uniform(-200.0, -30.0, m)
    return np.concatenate([halves, eighths, below])


def points_and_vectors(rng, m=60):
    pts = np.column_stack([boundary_values(rng, m), rng.permutation(boundary_values(rng, m))])
    vec = rng.normal(scale=40.0, size=pts.shape)
    vec[::7] = 0.0                                   # zero-length arrows: the dot branch
    vec[3::11] = rng.normal(scale=1e-12, size=vec[3::11].shape)
    vec[5::13] *= 1e-2                               # heads shorter than 4 px
    return pts, vec


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quiver_matches_per_element_formatting(seed):
    rng = np.random.default_rng(seed)
    pts, vec = points_and_vectors(rng)
    general = svg.Projector((-1.3, -0.7), (2.1, 1.9))
    for proj, scale in ((UNIT, 1.0), (UNIT, 0.37), (general, 0.01)):
        got = svg.quiver(pts, vec, proj, scale, color="#555555")
        assert got == ref_quiver(pts, vec, proj, scale, color="#555555")
    pct = "rgb(50%,0%,10%)"                          # a CSS color with % signs
    assert svg.quiver(pts, vec, UNIT, 1.0, color=pct) == ref_quiver(pts, vec, UNIT, 1.0, color=pct)
    got = svg.quiver(pts, vec, UNIT, 1.0)
    assert sum(e.startswith("<circle") for e in got) >= len(pts) // 7
    assert any('="-' in e for e in got)
    assert svg.quiver(pts[0], vec[0], UNIT, 1.0) == ref_quiver(pts[0], vec[0], UNIT, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polyline_and_dots_match_per_element_formatting(seed):
    rng = np.random.default_rng(seed)
    pts, _ = points_and_vectors(rng)
    assert svg.polyline(pts, UNIT, color="#c0392b", width=1.5) == \
        ref_polyline(pts, UNIT, color="#c0392b", width=1.5)
    assert svg.polyline(pts[:1], UNIT) == ref_polyline(pts[:1], UNIT)
    assert svg.dots(pts, UNIT, color="#1f4e8c", radius=4) == \
        ref_dots(pts, UNIT, color="#1f4e8c", radius=4)
    assert svg.dots(pts[:1], UNIT) == ref_dots(pts[:1], UNIT)
    assert svg.dots(pts, UNIT, color="rgb(50%,0%,10%)") == \
        ref_dots(pts, UNIT, color="rgb(50%,0%,10%)")


def test_deformed_grid_matches_per_element_formatting():
    rng = np.random.default_rng(3)
    shape = (9, 7)
    lattice = np.stack(np.meshgrid(np.linspace(-40, 600, 9), np.linspace(-40, 600, 7),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    moved = np.round(lattice + rng.normal(scale=25.0, size=lattice.shape), 2) + 0.005
    for proj in (UNIT, svg.Projector(moved.min(axis=0), moved.max(axis=0))):
        assert svg.deformed_grid(moved, shape, proj) == ref_deformed_grid(moved, shape, proj)


def test_fan_sheet_with_a_failed_member_matches_per_element_formatting():
    rng = np.random.default_rng(4)
    members, times = 9, 41
    sheet = np.round(rng.uniform(-60.0, 600.0, (members, times, 2)), 2) + 0.005
    sheet[3] = np.nan                                # a coalesced fan member
    for proj in (UNIT, svg.Projector((-0.5, -0.5), (0.8, 0.6))):
        got = svg.fan_sheet(sheet, proj, "#c0392b")
        assert got == ref_fan_sheet(sheet, proj, "#c0392b")
        assert len(got) == members - 1 + len(range(0, times, times // 16))
