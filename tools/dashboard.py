#!/usr/bin/env python3
"""Self-contained SLO dashboard: monitor series + alerts + critpath.

Renders the bundle produced by
:func:`repro.experiments.build_dashboard_bundle` as

* a single static HTML page (inline SVG sparklines, alert timeline,
  SLO states, critical-path attribution) — stdlib only, no JS, no
  external assets, honors ``prefers-color-scheme``;
* a terminal summary (``--text``);

and ships a structural self-check (``--check``) the CI smoke job runs
against the rendered page.

Usage::

    python tools/dashboard.py --out dashboard.html          # build+render
    python tools/dashboard.py --bundle b.json --out d.html  # render only
    python tools/dashboard.py --text                        # terminal view
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:
    import repro  # noqa: F401  (installed layout)
except ImportError:  # running from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

__all__ = ["check_html", "render_html", "render_text"]

#: which recording rules get a sparkline, in display order
SPARK_RULES = ("offered_rps", "delivered_rps", "ingress_p99_us",
               "shed_ratio")

#: severity -> (icon, css color token); status colors are reserved for
#: status and always ship icon + label, never color alone
SEVERITY_BADGES = {
    "page": ("▲", "critical"),     # ▲
    "ticket": ("●", "warning"),    # ●
    "info": ("✓", "good"),         # ✓
}

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #1a1a19; --ink-2: #6f6e6a;
  --line: #e5e4e0; --series-1: #2a78d6;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f1f0ee; --ink-2: #a3a29d;
    --line: #3a3936; --series-1: #3987e5;
  }
}
html { background: var(--surface); color: var(--ink);
       font: 14px/1.45 system-ui, sans-serif; }
body { max-width: 960px; margin: 2rem auto; padding: 0 1rem; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: 0.95rem; color: var(--ink-2); margin-bottom: 0.3rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { text-align: right; padding: 0.2rem 0.7rem;
         border-bottom: 1px solid var(--line); }
th { color: var(--ink-2); font-weight: 600; }
td.l, th.l { text-align: left; }
.spark-grid { display: flex; flex-wrap: wrap; gap: 1rem 2rem; }
.spark { min-width: 260px; }
.spark .value { color: var(--ink-2); font-size: 0.85rem; }
.badge { font-weight: 600; }
.badge.critical { color: var(--critical); }
.badge.warning { color: var(--warning); }
.badge.serious { color: var(--serious); }
.badge.good { color: var(--good); }
.muted { color: var(--ink-2); }
svg text { fill: var(--ink-2); font-size: 9px; }
"""


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.2f}"


def _sparkline(points: Sequence[Sequence[float]],
               spans: Sequence[Dict[str, Any]] = (),
               width: int = 260, height: int = 48) -> str:
    """One single-series inline-SVG sparkline.

    ``spans`` (alert firing intervals) overlay as translucent status
    bands — they mark *state*, the series color stays the series'.
    """
    if not points:
        return '<svg width="%d" height="%d"></svg>' % (width, height)
    t0, t1 = points[0][0], points[-1][0]
    values = [p[1] for p in points]
    lo, hi = min(values), max(values)
    t_span = (t1 - t0) or 1.0
    v_span = (hi - lo) or 1.0
    pad = 4

    def x(t: float) -> float:
        return pad + (width - 2 * pad) * (t - t0) / t_span

    def y(v: float) -> float:
        return height - pad - (height - 2 * pad) * (v - lo) / v_span

    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" role="img">']
    for span in spans:
        fired = max(span["fired_ts"], t0)
        resolved = span["resolved_ts"] if span["resolved_ts"] is not None else t1
        if resolved <= t0 or fired >= t1:
            continue
        _, color = SEVERITY_BADGES.get(span["severity"],
                                       SEVERITY_BADGES["info"])
        parts.append(
            f'<rect x="{x(fired):.1f}" y="0" '
            f'width="{max(x(min(resolved, t1)) - x(fired), 1.0):.1f}" '
            f'height="{height}" fill="var(--{color})" opacity="0.18"/>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" '
                 f'x2="{width - pad}" y2="{height - pad}" '
                 'stroke="var(--line)" stroke-width="1"/>')
    coords = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in points)
    parts.append(f'<polyline points="{coords}" fill="none" '
                 'stroke="var(--series-1)" stroke-width="2" '
                 'stroke-linejoin="round"/>')
    parts.append("</svg>")
    return "".join(parts)


def _badge(severity: str) -> str:
    icon, color = SEVERITY_BADGES.get(severity, SEVERITY_BADGES["info"])
    return (f'<span class="badge {color}">{icon} '
            f'{html.escape(severity)}</span>')


def _overload_section(run: Dict[str, Any]) -> List[str]:
    snap = run["snapshot"]
    spans = run["alert_spans"]
    out = [f"<h2>Overload — {html.escape(run['config'])} @ "
           f"{run['multiplier']}x</h2>",
           f'<p class="muted">goodput {_fmt(run["goodput_rps"])} rps, '
           f'offered {_fmt(run["offered_rps"])} rps, '
           f'{_fmt(run["rejected"])} rejected at the edge, '
           f'{snap["evaluations"]} monitor evaluations</p>',
           '<div class="spark-grid">']
    for rule in SPARK_RULES:
        points = snap["rules"].get(rule, [])
        last = points[-1][1] if points else 0.0
        out.append('<div class="spark">'
                   f"<h3>{html.escape(rule)}</h3>"
                   f"{_sparkline(points, spans)}"
                   f'<div class="value">last {_fmt(last)}</div></div>')
    out.append("</div>")

    out.append("<h3>Alerts</h3>")
    if spans:
        out.append('<table><tr><th class="l">alert</th>'
                   '<th class="l">severity</th><th>fired (ms)</th>'
                   '<th>resolved (ms)</th><th>burn</th></tr>')
        for span in spans:
            resolved = (f"{span['resolved_ts'] / 1000.0:.1f}"
                        if span["resolved_ts"] is not None else "still firing")
            out.append(
                f'<tr><td class="l">{html.escape(span["alert"])}</td>'
                f'<td class="l">{_badge(span["severity"])}</td>'
                f"<td>{span['fired_ts'] / 1000.0:.1f}</td>"
                f"<td>{resolved}</td><td>{span['burn']}</td></tr>")
        out.append("</table>")
    else:
        out.append('<p><span class="badge good">✓ quiet</span> '
                   "no SLO alerts fired</p>")

    out.append('<h3>SLOs</h3><table><tr><th class="l">slo</th>'
               "<th>objective</th><th class=\"l\">state</th></tr>")
    for slo in snap["slos"]:
        state = (_badge("page") if slo["firing"]
                 else '<span class="badge good">✓ ok</span>')
        out.append(f'<tr><td class="l">{html.escape(slo["name"])}</td>'
                   f"<td>{slo['objective']:.2f}</td>"
                   f'<td class="l">{state}</td></tr>')
    out.append("</table>")
    return out


def _critpath_section(critpath: Dict[str, Any]) -> List[str]:
    out = ["<h2>Critical path — where did the p99 go</h2>"]
    for point in critpath["points"]:
        out.append(f"<h3>{html.escape(point['label'])} — "
                   f"p99 {point['p99_total_us'] / 1000.0:.2f} ms, "
                   f"{point['requests']} requests</h3>")
        out.append('<table><tr><th class="l">stage</th><th>p50 µs</th>'
                   "<th>p50 share</th><th>p99 µs</th><th>p99 share</th>"
                   "<th>mean share</th></tr>")
        for row in point["table"]:
            out.append(
                f'<tr><td class="l">{html.escape(row["stage"])}</td>'
                f"<td>{row['p50_us']:.1f}</td>"
                f"<td>{row['p50_share']:.1%}</td>"
                f"<td>{row['p99_us']:.1f}</td>"
                f"<td>{row['p99_share']:.1%}</td>"
                f"<td>{row['mean_share']:.1%}</td></tr>")
        out.append("</table>")
    shifts = " → ".join(
        f"{r['point']}: {r['dominant_stage']} ({r['share']:.0%})"
        for r in critpath["shift"])
    out.append(f'<p class="muted">dominant p99 stage: '
               f"{html.escape(shifts)}</p>")
    return out


def render_html(bundle: Dict[str, Any]) -> str:
    """The whole dashboard as one self-contained HTML page."""
    parts = ["<!DOCTYPE html>", '<html lang="en"><head>',
             '<meta charset="utf-8"/>',
             f"<title>{html.escape(bundle['title'])}</title>",
             f"<style>{_CSS}</style>", "</head><body>",
             f"<h1>{html.escape(bundle['title'])}</h1>"]
    for run in bundle.get("overload", []):
        parts.extend(_overload_section(run))
    if bundle.get("critpath"):
        parts.extend(_critpath_section(bundle["critpath"]))
    parts.append("</body></html>")
    return "\n".join(parts)


def render_text(bundle: Dict[str, Any]) -> str:
    """Compact terminal summary of the same bundle."""
    lines = [bundle["title"], "=" * len(bundle["title"])]
    for run in bundle.get("overload", []):
        lines.append(f"\n[{run['config']} @ {run['multiplier']}x]  "
                     f"goodput {_fmt(run['goodput_rps'])} rps / offered "
                     f"{_fmt(run['offered_rps'])} rps")
        spans = run["alert_spans"]
        if not spans:
            lines.append("  alerts: none (quiet)")
        for span in spans:
            resolved = (f"{span['resolved_ts'] / 1000.0:.1f}ms"
                        if span["resolved_ts"] is not None else "firing")
            lines.append(f"  {span['severity']:>6s}  {span['alert']}  "
                         f"{span['fired_ts'] / 1000.0:.1f}ms -> {resolved}"
                         f"  burn={span['burn']}")
    critpath = bundle.get("critpath")
    if critpath:
        lines.append("\n[critical path]")
        for r in critpath["shift"]:
            mark = " *shift*" if r["shifted"] else ""
            lines.append(f"  {r['point']}: {r['dominant_stage']} "
                         f"({r['share']:.0%} of "
                         f"p99={r['p99_total_us'] / 1000.0:.2f}ms){mark}")
    return "\n".join(lines)


def check_html(page: str, bundle: Dict[str, Any]) -> List[str]:
    """Structural self-check; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if not bundle.get("overload"):
        problems.append("no overload cells in the bundle")
    elif not any(run["alert_spans"] for run in bundle["overload"]):
        problems.append("no alert spans in any overload cell")
    if not (bundle.get("critpath") or {}).get("points"):
        problems.append("no critical-path points in the bundle")
    if not page.startswith("<!DOCTYPE html>"):
        problems.append("missing doctype")
    for tag in ("html", "head", "body", "style", "title"):
        if page.count(f"<{tag}") != page.count(f"</{tag}>"):
            problems.append(f"unbalanced <{tag}> tags")
    expected_sparks = sum(
        1 for run in bundle.get("overload", []) for rule in SPARK_RULES
        if run["snapshot"]["rules"].get(rule))
    if page.count("<polyline") < expected_sparks:
        problems.append(
            f"expected >= {expected_sparks} sparklines, found "
            f"{page.count('<polyline')}")
    for run in bundle.get("overload", []):
        for span in run["alert_spans"]:
            if span["alert"] not in page:
                problems.append(f"alert {span['alert']} not rendered")
    critpath = bundle.get("critpath")
    if critpath:
        for point in critpath["points"]:
            for row in point["table"]:
                if f">{row['stage']}<" not in page:
                    problems.append(f"stage {row['stage']} not rendered")
                    break
    if "--surface" not in page or "--series-1" not in page:
        problems.append("missing theme tokens")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render the SLO dashboard from monitored runs.")
    parser.add_argument("--bundle", metavar="JSON", default=None,
                        help="render an existing bundle instead of "
                             "running the simulations")
    parser.add_argument("--out", metavar="HTML", default=None,
                        help="write the HTML page here")
    parser.add_argument("--save-bundle", metavar="JSON", default=None,
                        help="also write the bundle as JSON")
    parser.add_argument("--text", action="store_true",
                        help="print the terminal summary")
    parser.add_argument("--check", action="store_true",
                        help="run the structural self-check on the page")
    args = parser.parse_args(argv)

    if args.bundle:
        bundle = json.loads(Path(args.bundle).read_text())
    else:
        from repro.experiments import build_dashboard_bundle
        bundle = build_dashboard_bundle()

    if args.save_bundle:
        Path(args.save_bundle).write_text(json.dumps(bundle, indent=1))
    page = render_html(bundle)
    if args.out:
        Path(args.out).write_text(page)
        print(f"wrote {args.out} ({len(page):,} bytes)")
    if args.text or not args.out:
        print(render_text(bundle))
    if args.check:
        problems = check_html(page, bundle)
        for problem in problems:
            print(f"CHECK FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("dashboard structural check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
