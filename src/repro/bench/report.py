"""Plain-text reporting: the figures' series as aligned tables.

The paper presents log-log line plots; offline and headless, we print the
same data as one table per panel — x-axis (tasks or locales) down the
rows, one column per series — in a format that is easy to diff between
runs and to paste into notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["Series", "Panel", "render_panel", "render_figure"]


@dataclass
class Series:
    """One line of a panel: a name and y-values aligned with the panel xs."""

    name: str
    values: List[float] = field(default_factory=list)


@dataclass
class Panel:
    """One subplot: title, x-axis label/values, and the series."""

    title: str
    xlabel: str
    xs: List[int] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)

    def add(self, name: str, values: Sequence[float]) -> None:
        """Attach a series (must align with ``xs``)."""
        self.series.append(Series(name, list(values)))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (what ``--json`` writes per panel)."""
        return {
            "title": self.title,
            "xlabel": self.xlabel,
            "xs": list(self.xs),
            "series": {s.name: list(s.values) for s in self.series},
        }


def _fmt(v: float) -> str:
    """Format a time in seconds with enough significant digits for ratios."""
    if v == 0:
        return "0"
    if v >= 100:
        return f"{v:.1f}"
    if v >= 1:
        return f"{v:.3f}"
    return f"{v:.3g}"


def render_panel(panel: Panel) -> str:
    """Render one panel as an aligned monospace table."""
    headers = [panel.xlabel] + [s.name for s in panel.series]
    rows: List[List[str]] = []
    for i, x in enumerate(panel.xs):
        row = [str(x)]
        for s in panel.series:
            row.append(_fmt(s.values[i]) if i < len(s.values) else "-")
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    out: List[str] = []
    out.append(panel.title)
    out.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    out.append("  " + "  ".join("-" * w for w in widths))
    for r in rows:
        out.append("  " + "  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(out)


def render_figure(title: str, panels: Sequence[Panel]) -> str:
    """Render a whole figure (title + each panel, blank-line separated)."""
    parts = [f"== {title} ==", ""]
    for p in panels:
        parts.append(render_panel(p))
        parts.append("")
    return "\n".join(parts)
