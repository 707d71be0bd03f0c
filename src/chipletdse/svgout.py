"""SVG 1.1 rendering of floorplans: interposer outline, labeled rectangles,
rotation indicated. Numbers are formatted to 6 significant digits so output
is byte-stable for a given floorplan."""

from __future__ import annotations

from .model import Floorplan

_KIND_FILL = {
    "compute": "#7fb3d5",
    "gpu": "#76d7c4",
    "memory": "#f7dc6f",
    "io": "#e59866",
    "noc": "#c39bd3",
    "analog": "#f1948a",
}

SCALE = 10.0  # px per mm


def fmt(value) -> str:
    """Report text of a value: floats to 6 significant digits, booleans lower-case."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(float(value), ".6g")
    return str(value)


def floorplan_svg(fp: Floorplan, kinds: dict[str, str] | None = None) -> str:
    """Render a floorplan; y is flipped so (0,0) is the lower-left corner."""
    kinds = kinds or {}
    w_px, h_px = fp.width_mm * SCALE, fp.height_mm * SCALE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(w_px)}" height="{fmt(h_px)}" '
        f'viewBox="0 0 {fmt(w_px)} {fmt(h_px)}">',
        f'<rect x="0" y="0" width="{fmt(w_px)}" height="{fmt(h_px)}" '
        f'fill="#f4f6f7" stroke="#2c3e50" stroke-width="2"/>',
    ]
    for p in fp.placements:
        x = p.x_mm * SCALE
        y = (fp.height_mm - p.y_mm - p.eff_height) * SCALE
        fill = _KIND_FILL.get(kinds.get(p.name, ""), "#d5d8dc")
        label = p.name if p.rotation_deg == 0 else f"{p.name} (r{p.rotation_deg})"
        # XML text: & first, so the entities written for < and > stay intact
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        cx = x + p.eff_width * SCALE / 2.0
        cy = y + p.eff_height * SCALE / 2.0
        lines.append(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(p.eff_width * SCALE)}" '
            f'height="{fmt(p.eff_height * SCALE)}" fill="{fill}" '
            f'stroke="#34495e" stroke-width="1"/>')
        lines.append(
            f'<text x="{fmt(cx)}" y="{fmt(cy)}" text-anchor="middle" '
            f'dominant-baseline="middle" font-size="10" '
            f'font-family="sans-serif">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
