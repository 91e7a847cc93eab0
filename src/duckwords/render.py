"""
SVG and TikZ figure emission for hook configurations.

Figures follow the plot convention: dots at (i, pi_i) with y increasing
upward, hooks drawn as L-shaped polylines from the SW endpoint up and then
right to the NE endpoint.  Output is deterministic for a fixed input.
"""
from __future__ import annotations

from .hooks import HookConfig
from .perms import descent_table

SVG_UNIT = 40
SVG_MARGIN = 30
DOT_RADIUS = 5


def _point_labels(c: HookConfig) -> dict[int, str]:
    """Role letter for each position: X for descent bottoms, Y for SW
    endpoints, Z for NE endpoints (concatenated for multi-role points)."""
    bottoms = {j for _, j in descent_table(c.perm)}
    sw, ne = c.sw_positions(), c.ne_positions()
    labels: dict[int, str] = {}
    for p in range(1, c.n + 1):
        tag = ""
        if p in bottoms:
            tag += "X"
        if p in sw:
            tag += "Y"
        if p in ne:
            tag += "Z"
        labels[p] = tag
    return labels


def render_svg(c: HookConfig, labels: bool = False) -> str:
    n = c.n
    if n == 0:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1"></svg>'
    size = (n - 1) * SVG_UNIT + 2 * SVG_MARGIN

    def xy(pos: int, height: int) -> tuple[int, int]:
        # flip y so larger heights sit higher on the canvas
        return (
            SVG_MARGIN + (pos - 1) * SVG_UNIT,
            SVG_MARGIN + (n - height) * SVG_UNIT,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size + SVG_UNIT}" viewBox="0 0 {size} {size + SVG_UNIT}">'
    ]
    for a, b in c.hooks:
        x1, y1 = xy(a, c.value_at(a))
        x2, y2 = xy(b, c.value_at(b))
        parts.append(
            f'<polyline points="{x1},{y1} {x1},{y2} {x2},{y2}" '
            'fill="none" stroke="black" stroke-width="2"/>'
        )
    tags = _point_labels(c) if labels else {}
    for p in range(1, n + 1):
        x, y = xy(p, c.value_at(p))
        parts.append(f'<circle cx="{x}" cy="{y}" r="{DOT_RADIUS}" fill="black"/>')
        if labels and tags.get(p):
            parts.append(
                f'<text x="{x}" y="{y + 20}" text-anchor="middle" '
                f'font-size="14">{tags[p]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_tikz(c: HookConfig, labels: bool = False) -> str:
    lines = [r"\begin{tikzpicture}[scale=.6]"]
    tags = _point_labels(c) if labels else {}
    for a, b in c.hooks:
        ya, yb = c.value_at(a), c.value_at(b)
        lines.append(rf"\draw ({a},{ya}) -- ({a},{yb}) -- ({b},{yb});")
    for p in range(1, c.n + 1):
        v = c.value_at(p)
        lines.append(rf"\fill ({p},{v}) circle (1.2mm);")
        if labels and tags.get(p):
            lines.append(rf"\draw ({p},{v}) node[below] {{{tags[p]}}};")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines)
