"""Continuous SLO monitoring: recording rules + multi-window burn-rate
alerts, evaluated in *simulated* time.

The monitor is the third telemetry consumer (after exporters and the
profiler) and keeps the same contract: it never creates simulation
events, never yields, never draws random numbers.  It has no clock of
its own — it **piggybacks on metric observations**: every pushed
site (histograms, ingress SLI counters) performs a registry family
lookup, and the registry's ``observer`` hook hands that moment to the
monitor, which catches up on any step boundaries the simulation
crossed since the last observation.  Rule evaluation is pure
arithmetic over pushed registry state (a :class:`Selector` naming a
collected family raises ``ValueError``), so enabling the monitor keeps
simulation output byte-identical
(extends the PR-2 no-perturb guarantee; asserted in CI).

Three rule shapes cover the Prometheus recording-rule idioms used here:

* :class:`RateRule` — windowed ``rate()`` over a counter sum;
* :class:`RatioRule` — ratio of two windowed counter deltas;
* :class:`QuantileRule` — ``histogram_quantile`` over windowed bucket
  deltas.

SLOs (:class:`Slo`) are declarative: a good/total SLI (either a latency
histogram + threshold, or named good/total counter sets) plus an
objective.  Alerting follows the multi-window burn-rate recipe: a
*fast* (long, short) window pair pages on sharp budget burn, a *slow*
pair tickets on sustained burn; both the long and short window of a
pair must exceed the pair's threshold for it to fire.  Window lengths
are simulated time — milliseconds here play the role wall-clock
minutes play in production monitoring.

Firing/resolve transitions land in three places: the monitor's own
``timeline`` (JSON-safe, attached to ``ExperimentResult``), the span
tracer's global ``marks`` (exported into the Chrome trace as instant
events), and the per-rule recorded series consumed by the dashboard.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BurnWindow",
    "Monitor",
    "QuantileRule",
    "RateRule",
    "RatioRule",
    "Selector",
    "Slo",
    "DEFAULT_BURN_WINDOWS",
]

#: recorded points kept per rule series; later ones count as dropped
MAX_POINTS = 100_000
#: step boundaries one observation catches up on after a quiet stretch
CATCHUP_STEPS = 64


class Selector:
    """One watched series set: a family name + label matchers.

    ``where`` filters children by exact label values; children missing
    a matched label never match.  Sums over every matching child, so a
    selector with no matchers reads the whole family.
    """

    __slots__ = ("metric", "where", "_indices")

    def __init__(self, metric: str, where: Optional[Dict[str, str]] = None):
        self.metric = metric
        self.where = {k: str(v) for k, v in (where or {}).items()}
        self._indices: Optional[List[Tuple[int, str]]] = None

    @property
    def key(self) -> str:
        matchers = ",".join(f'{k}="{v}"' for k, v in sorted(self.where.items()))
        return f"{self.metric}{{{matchers}}}" if matchers else self.metric

    def _match(self, family) -> List[Tuple[Tuple[str, ...], object]]:
        if self._indices is None:
            names = list(family.labelnames)
            self._indices = [(names.index(k), v)
                             for k, v in sorted(self.where.items())
                             if k in names]
            if len(self._indices) != len(self.where):
                self._indices = []   # unmatched label name: match nothing
                return []
        if len(self._indices) != len(self.where):
            return []
        return [(key, child) for key, child in family._children.items()
                if all(key[i] == v for i, v in self._indices)]

    def children(self, registry):
        family = registry.get(self.metric)
        if family is None:
            return []
        return self._match(family)

    def scalar(self, registry) -> float:
        """Sum of matching counter/gauge child values."""
        return float(sum(child.value
                         for _, child in self.children(registry)))


def _hist_children(selector: Selector, registry):
    return [child for _, child in selector.children(registry)]


class _Input:
    """Ring of timestamped samples for one selector + extractor."""

    __slots__ = ("key", "_extract", "samples", "max_samples")

    def __init__(self, key: str, extract, max_samples: int):
        self.key = key
        self._extract = extract
        self.max_samples = max_samples
        self.samples: List[Tuple[float, Any]] = []

    def record(self, t: float, registry) -> None:
        self.samples.append((t, self._extract(registry)))
        if len(self.samples) > self.max_samples:
            # Drop the oldest quarter in one slice: amortized O(1).
            keep = self.max_samples * 3 // 4
            del self.samples[:-keep]

    def at_or_before(self, t: float) -> Optional[Tuple[float, Any]]:
        """Latest sample with timestamp <= t (None before first)."""
        best = None
        for ts, value in reversed(self.samples):
            if ts <= t:
                return (ts, value)
        return best

    def latest(self) -> Optional[Tuple[float, Any]]:
        return self.samples[-1] if self.samples else None


class RateRule:
    """``rate(metric[window])`` — per-second increase of a counter sum."""

    def __init__(self, name: str, metric: str, window_us: float,
                 where: Optional[Dict[str, str]] = None):
        self.name = name
        self.window_us = window_us
        self.selector = Selector(metric, where)

    def inputs(self):
        return [(self.selector.key, self.selector.scalar)]

    def eval(self, monitor, t: float) -> float:
        delta, span_us = monitor._delta(self.selector.key, t, self.window_us)
        return delta / (span_us / 1e6) if span_us > 0 else 0.0


class RatioRule:
    """Ratio of two windowed counter deltas (e.g. error ratio).

    ``num`` and ``den`` are selectors or lists of selectors; lists are
    summed.  With a zero denominator delta the ratio reports
    ``default`` (1.0 — "no traffic, no violation" — unless overridden).
    """

    def __init__(self, name: str, num, den, window_us: float,
                 default: float = 1.0):
        self.name = name
        self.window_us = window_us
        self.num = _as_selectors(num)
        self.den = _as_selectors(den)
        self.default = default

    def inputs(self):
        return [(s.key, s.scalar) for s in self.num + self.den]

    def eval(self, monitor, t: float) -> float:
        num = sum(monitor._delta(s.key, t, self.window_us)[0]
                  for s in self.num)
        den = sum(monitor._delta(s.key, t, self.window_us)[0]
                  for s in self.den)
        return num / den if den > 0 else self.default


class QuantileRule:
    """``histogram_quantile(q, rate(metric_bucket[window]))``.

    Windowed: the quantile is computed from *bucket-count deltas* over
    the window, so it tracks the recent distribution rather than the
    run-lifetime one.  Reports 0.0 when the window saw no samples.
    """

    def __init__(self, name: str, metric: str, q: float, window_us: float,
                 where: Optional[Dict[str, str]] = None):
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        self.name = name
        self.q = q
        self.window_us = window_us
        self.selector = Selector(metric, where)

    def _counts(self, registry) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        children = _hist_children(self.selector, registry)
        if not children:
            return ((), ())
        bounds = children[0].bounds
        counts = [0] * (len(bounds) + 1)
        for child in children:
            for i, c in enumerate(child.counts):
                counts[i] += c
        return (bounds, tuple(counts))

    def inputs(self):
        return [(f"{self.selector.key}#buckets", self._counts)]

    def eval(self, monitor, t: float) -> float:
        key = f"{self.selector.key}#buckets"
        now = monitor._input_value(key)
        then, _span = monitor._window_base(key, t, self.window_us)
        if now is None:
            return 0.0
        bounds, cur = now
        if not bounds:
            return 0.0
        base = then[1] if then is not None and then[1] else (0,) * len(cur)
        if len(base) != len(cur):
            base = (0,) * len(cur)
        deltas = [c - b for c, b in zip(cur, base)]
        total = sum(deltas)
        if total <= 0:
            return 0.0
        rank = self.q * total
        seen = 0
        for i, c in enumerate(deltas):
            seen += c
            if seen >= rank and c:
                return bounds[i] if i < len(bounds) else bounds[-1]
        return bounds[-1]


def _as_selectors(spec) -> List[Selector]:
    if isinstance(spec, Selector):
        return [spec]
    if isinstance(spec, str):
        return [Selector(spec)]
    out: List[Selector] = []
    for item in spec:
        out.append(item if isinstance(item, Selector) else Selector(item))
    return out


class BurnWindow:
    """One (long, short, threshold) burn-rate alert window pair."""

    __slots__ = ("name", "long_us", "short_us", "threshold", "severity")

    def __init__(self, name: str, long_us: float, short_us: float,
                 threshold: float, severity: str = "page"):
        self.name = name
        self.long_us = long_us
        self.short_us = short_us
        self.threshold = threshold
        self.severity = severity


#: the classic fast + slow multi-window pairs, scaled to simulated
#: milliseconds (5s/1s and 60s/5s in the SRE workbook become 5ms/1ms
#: and 60ms/5ms here — simulated runs live on a 1000x faster clock)
DEFAULT_BURN_WINDOWS = (
    BurnWindow("fast", 5_000.0, 1_000.0, threshold=8.0, severity="page"),
    BurnWindow("slow", 60_000.0, 5_000.0, threshold=3.0, severity="ticket"),
)


class Slo:
    """A declarative good/total SLI plus an objective and burn windows.

    Two SLI shapes:

    * latency — ``hist_metric`` + ``threshold_us``: good = observations
      at or under the threshold (snapped to the enclosing histogram
      bucket bound), total = all observations;
    * availability — ``good``/``total`` counter selector sets: good and
      total are windowed counter deltas (lists are summed, so a
      deliberate admission shed can be counted as "handled").

    ``min_events`` suppresses alerting on windows with fewer total
    events than that (no data is not an outage).
    """

    def __init__(self, name: str, objective: float,
                 hist_metric: Optional[str] = None,
                 threshold_us: Optional[float] = None,
                 good=None, total=None,
                 where: Optional[Dict[str, str]] = None,
                 windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
                 min_events: int = 10,
                 labels: Optional[Dict[str, str]] = None):
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1): {objective}")
        latency_sli = hist_metric is not None
        if latency_sli == (good is not None):
            raise ValueError(
                "define exactly one of hist_metric or good/total")
        if latency_sli and threshold_us is None:
            raise ValueError("a latency SLI needs threshold_us")
        self.name = name
        self.objective = objective
        self.budget = 1.0 - objective
        self.windows = tuple(windows)
        self.min_events = min_events
        self.labels = dict(labels or {})
        self.hist_selector = (Selector(hist_metric, where)
                              if latency_sli else None)
        self.threshold_us = threshold_us
        self.good = _as_selectors(good) if good is not None else []
        self.total = (_as_selectors(total)
                      if total is not None else [])
        if not latency_sli and not self.total:
            raise ValueError("an availability SLI needs total selectors")
        # alert state
        self.firing = False
        self.fired_window: Optional[str] = None

    # -- sampling ------------------------------------------------------------
    def _hist_pair(self, registry) -> Tuple[float, float]:
        """(good, total) cumulative counts for the latency SLI."""
        children = _hist_children(self.hist_selector, registry)
        good = total = 0.0
        for child in children:
            idx = bisect_left(child.bounds, self.threshold_us)
            idx = min(idx, len(child.bounds) - 1)
            good += sum(child.counts[:idx + 1])
            total += child.count
        return (good, total)

    def inputs(self):
        if self.hist_selector is not None:
            return [(f"{self.hist_selector.key}#le{self.threshold_us}",
                     self._hist_pair)]
        return ([(s.key, s.scalar) for s in self.good]
                + [(s.key, s.scalar) for s in self.total])

    # -- evaluation ----------------------------------------------------------
    def _window_ratio(self, monitor, t: float,
                      window_us: float) -> Tuple[float, float]:
        """(good_ratio, total_events) over one window."""
        if self.hist_selector is not None:
            key = f"{self.hist_selector.key}#le{self.threshold_us}"
            delta, _span = monitor._delta_pair(key, t, window_us)
            good, total = delta
        else:
            good = sum(monitor._delta(s.key, t, window_us)[0]
                       for s in self.good)
            total = sum(monitor._delta(s.key, t, window_us)[0]
                        for s in self.total)
        if total <= 0:
            return (1.0, 0.0)
        return (min(good / total, 1.0), total)

    def evaluate(self, monitor, t: float) -> List[Dict[str, Any]]:
        """Advance alert state; returns transition records (if any).

        ``min_events`` gates the *long* window only; the short window
        is the "still happening right now" check and just needs data —
        at low per-tenant rates a 1 ms window rarely holds min_events
        and would otherwise mute every page.
        """
        firing_pair: Optional[BurnWindow] = None
        firing_burn = 0.0
        max_burn = 0.0
        for w in self.windows:
            long_ratio, long_total = self._window_ratio(monitor, t,
                                                        w.long_us)
            if long_total < self.min_events:
                continue
            short_ratio, short_total = self._window_ratio(monitor, t,
                                                          w.short_us)
            long_burn = (1.0 - long_ratio) / self.budget
            short_burn = (1.0 - short_ratio) / self.budget
            max_burn = max(max_burn, long_burn)
            if (long_burn > w.threshold and short_total > 0
                    and short_burn > w.threshold
                    and firing_pair is None):
                firing_pair = w
                firing_burn = long_burn
        transitions: List[Dict[str, Any]] = []
        if firing_pair is not None and not self.firing:
            self.firing = True
            self.fired_window = firing_pair.name
            transitions.append({
                "alert": self.name, "state": "firing", "ts": t,
                "window": firing_pair.name,
                "severity": firing_pair.severity,
                "burn": round(firing_burn, 3),
                **self.labels,
            })
        elif firing_pair is None and self.firing:
            self.firing = False
            transitions.append({
                "alert": self.name, "state": "resolved", "ts": t,
                "window": self.fired_window or "",
                "severity": "info",
                "burn": round(max_burn, 3),
                **self.labels,
            })
            self.fired_window = None
        return transitions


class Monitor:
    """The recording-rule / SLO engine bound to one telemetry bundle.

    Create it via :meth:`install`; add rules and SLOs *before* traffic
    starts so window baselines are clean.  All evaluation happens at
    multiples of ``step_us`` in simulated time, triggered lazily by the
    registry's observer hook.
    """

    def __init__(self, env, metrics, tracer=None, step_us: float = 1_000.0,
                 arm_at_us: float = 0.0):
        self.env = env
        self.metrics = metrics
        self.tracer = tracer
        self.step_us = step_us
        self.max_points = MAX_POINTS
        self.catchup_steps = CATCHUP_STEPS
        #: alerts are suppressed before this simulated instant (rules
        #: still record).  Arm after the workload settles — a burn
        #: window reaching back into an idle warmup reads "requests
        #: arriving, nothing answered yet" as an outage.
        self.arm_at_us = arm_at_us
        self.rules: List[object] = []
        self.slos: List[Slo] = []
        #: recording-rule outputs: rule name -> [(t, value), ...]
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        #: alert transitions in firing order (JSON-safe dicts)
        self.timeline: List[Dict[str, Any]] = []
        self.evaluations = 0
        self.dropped_points = 0
        self._inputs: Dict[str, _Input] = {}
        self._next_eval = self._boundary_after(env.now)
        self._in_eval = False

    # -- wiring --------------------------------------------------------------
    @classmethod
    def install(cls, telemetry, **kwargs) -> "Monitor":
        """Create a monitor, hook it to the telemetry bundle's registry
        observer, and publish it as ``telemetry.monitor``."""
        monitor = cls(telemetry.env, telemetry.metrics,
                      tracer=telemetry.tracer, **kwargs)
        telemetry.metrics.observer = monitor.catch_up
        telemetry.monitor = monitor
        return monitor

    def _boundary_after(self, now: float) -> float:
        steps = int(now // self.step_us) + 1
        return steps * self.step_us

    def _ensure_input(self, key: str, extract, window_us: float) -> None:
        needed = int(window_us // self.step_us) + 8
        existing = self._inputs.get(key)
        if existing is None:
            self._inputs[key] = _Input(key, extract, needed)
        elif existing.max_samples < needed:
            existing.max_samples = needed

    def _register(self, obj, window_us: float) -> None:
        for key, extract in obj.inputs():
            self._ensure_input(key, extract, window_us)

    def add_rule(self, rule) -> None:
        """Register a recording rule (Rate/Ratio/QuantileRule)."""
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)
        self._register(rule, rule.window_us)

    def add_slo(self, slo: Slo) -> None:
        """Register an SLO with burn-rate alerting."""
        if any(s.name == slo.name for s in self.slos):
            raise ValueError(f"duplicate SLO name {slo.name!r}")
        self.slos.append(slo)
        longest = max((w.long_us for w in slo.windows), default=0.0)
        self._register(slo, longest)

    # -- piggyback evaluation ------------------------------------------------
    def catch_up(self) -> None:
        """Evaluate every step boundary up to now: the registry observer,
        and a runner's last call, for boundaries after its last site."""
        if self._in_eval:
            return
        now = self.env.now
        if now < self._next_eval:
            return
        pending = int((now - self._next_eval) // self.step_us) + 1
        if pending > self.catchup_steps:
            # A long quiet stretch: evaluating hundreds of identical
            # boundaries adds nothing — keep the newest ones only.
            skipped = pending - self.catchup_steps
            self._next_eval += skipped * self.step_us
        self._in_eval = True
        try:
            while self._next_eval <= now:
                self._evaluate(self._next_eval)
                self._next_eval += self.step_us
        finally:
            self._in_eval = False

    def _evaluate(self, t: float) -> None:
        self.evaluations += 1
        for input_ in self._inputs.values():
            input_.record(t, self.metrics)
        for rule in self.rules:
            value = rule.eval(self, t)
            points = self.series.setdefault(rule.name, [])
            if len(points) < self.max_points:
                points.append((t, value))
            else:
                self.dropped_points += 1
        if t < self.arm_at_us:
            return
        for slo in self.slos:
            for transition in slo.evaluate(self, t):
                self.timeline.append(transition)
                if self.tracer is not None:
                    self.tracer.mark(
                        f"alert:{slo.name}", category="alert",
                        state=transition["state"],
                        window=transition["window"],
                        severity=transition["severity"],
                        burn=transition["burn"])

    # -- window arithmetic (used by the rule classes) ------------------------
    def _input_value(self, key: str):
        input_ = self._inputs.get(key)
        if input_ is None:
            return None
        latest = input_.latest()
        return latest[1] if latest is not None else None

    def _window_base(self, key: str, t: float, window_us: float):
        """(sample, actual_span_us) at-or-before the window start."""
        input_ = self._inputs.get(key)
        if input_ is None or not input_.samples:
            return (None, 0.0)
        base = input_.at_or_before(t - window_us)
        if base is None:
            base = input_.samples[0]
        return (base, t - base[0])

    def _delta(self, key: str, t: float,
               window_us: float) -> Tuple[float, float]:
        """(value delta, actual span us) for a scalar input."""
        input_ = self._inputs.get(key)
        if input_ is None or not input_.samples:
            return (0.0, 0.0)
        now = input_.latest()
        base, span = self._window_base(key, t, window_us)
        if base is None or base[0] >= now[0]:
            return (0.0, 0.0)
        return (now[1] - base[1], min(span, t) or span)

    def _delta_pair(self, key: str, t: float,
                    window_us: float) -> Tuple[Tuple[float, float], float]:
        """Delta for a (good, total) tuple input."""
        input_ = self._inputs.get(key)
        if input_ is None or not input_.samples:
            return ((0.0, 0.0), 0.0)
        now = input_.latest()
        base, span = self._window_base(key, t, window_us)
        if base is None or base[0] >= now[0]:
            return ((0.0, 0.0), 0.0)
        return ((now[1][0] - base[1][0], now[1][1] - base[1][1]), span)

    # -- results -------------------------------------------------------------
    def alert_spans(self) -> List[Dict[str, Any]]:
        """Firing intervals: [{alert, fired_ts, resolved_ts|None, ...}]."""
        open_: Dict[str, Dict[str, Any]] = {}
        spans: List[Dict[str, Any]] = []
        for tr in self.timeline:
            if tr["state"] == "firing":
                record = {"alert": tr["alert"], "fired_ts": tr["ts"],
                          "resolved_ts": None, "window": tr["window"],
                          "severity": tr["severity"], "burn": tr["burn"]}
                open_[tr["alert"]] = record
                spans.append(record)
            elif tr["alert"] in open_:
                open_.pop(tr["alert"])["resolved_ts"] = tr["ts"]
        return spans

    def first_firing_us(self) -> Optional[float]:
        """Simulated instant of the first alert firing, if any."""
        for tr in self.timeline:
            if tr["state"] == "firing":
                return tr["ts"]
        return None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: rule series, alert timeline, SLO summary."""
        return {
            "step_us": self.step_us,
            "evaluations": self.evaluations,
            "rules": {name: [[t, v] for t, v in points]
                      for name, points in sorted(self.series.items())},
            "alerts": list(self.timeline),
            "alert_spans": self.alert_spans(),
            "slos": [
                {"name": s.name, "objective": s.objective,
                 "firing": s.firing, **s.labels}
                for s in self.slos
            ],
        }
