"""One typed metrics registry for the gateway and the pre-fork pool.

Three family types, all thread-safe:

* :class:`Counter` — labelled monotonic counts, either incremented with
  :meth:`Counter.inc` or read from a callable that owns the count (the
  batcher's flushes, the model registry's swaps);
* :class:`Histogram` — fixed buckets with an exact count and sum per
  label set; a value on a bucket's edge lands in it (``le`` is
  inclusive);
* :class:`Gauge` — a callable read when the registry is collected.

:meth:`Registry.snapshot` collects every family into a JSON-safe dict,
:func:`render` turns a snapshot into Prometheus text exposition, and
:func:`merge` folds several workers' snapshots into one: counters and
histograms are summed, gauges stay per worker under a ``worker`` label.
Pool workers publish their snapshots as files
(:class:`repro.server.stats.StatsBoard`), so any worker can render
pool-wide sums of every family.
"""

from __future__ import annotations

import bisect
import operator
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: A label set in canonical form: sorted ``(name, value)`` pairs.
Labels = Tuple[Tuple[str, str], ...]
#: ``{family name: {"type", "help", "samples"[, "buckets"]}}``.
Snapshot = Dict[str, Dict[str, Any]]

#: Upper edges of the batch-size histogram buckets (rows per flush).
BATCH_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Upper edges (seconds) of the latency histograms: log-spaced from
#: 100 µs to 1 s, wide enough for queue waits under injected chaos
#: sleeps yet fine enough to separate parse (~10 µs) from scoring (~ms).
PHASE_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


def _key(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Series:
    """A family of series keyed by the values of its declared label names.

    An unlabelled family starts with its one series at zero, so it is
    rendered before the first update; a labelled one has no samples
    until a label set is first used.
    """

    def __init__(self, name: str, help: str, labels: Sequence[str], zero) -> None:
        self.name, self.help, self.labelnames = name, help, tuple(labels)
        self._zero = zero
        self._lock = threading.Lock()
        # Keys are the raw label values: one value for one label name, a
        # tuple for several, () for none (itemgetter's own shapes, the
        # cheapest key to build on the request path).
        self._get = operator.itemgetter(*self.labelnames) if self.labelnames else None
        self._series: Dict[Any, Any] = {} if self.labelnames else {(): zero()}

    def _key(self, labels: Mapping[str, Any]) -> Any:
        if len(labels) != len(self.labelnames):
            raise ValueError(f"{self.name} takes labels {self.labelnames}")
        return self._get(labels) if labels else ()

    def _items(self) -> List[Tuple[Dict[str, str], Any]]:
        items = []
        for key, value in sorted(self._series.items()):
            values = key if isinstance(key, tuple) else (key,)
            items.append((dict(zip(self.labelnames, map(str, values))), value))
        return items


class Counter(_Series):
    """Monotonic counts; ``read`` makes it report a count owned elsewhere."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        read: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help, labels, int)
        self._read = read

    def inc(self, by: float = 1, **labels: Any) -> None:
        """Add ``by`` to the series with these labels."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + by

    def value(self, **labels: Any) -> float:
        """Current value of one series (0 before its first increment)."""
        if self._read is not None:
            return self._read()
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0)

    def samples(self) -> List[list]:
        if self._read is not None:
            return [[{}, self._read()]]
        with self._lock:
            return [[labels, value] for labels, value in self._items()]


class Histogram(_Series):
    """Fixed-bucket observations with an exact count and sum per series."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Sequence[float], labels: Sequence[str] = ()
    ) -> None:
        self.buckets = tuple(buckets)
        # Per series: [per-bucket counts (last: overflow), sum]; the count
        # is the counts' total.
        super().__init__(name, help, labels, lambda: [[0] * (len(self.buckets) + 1), 0])

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the series with these labels."""
        slot = bisect.bisect_left(self.buckets, value)
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._zero()
            series[0][slot] += 1
            series[1] += value

    def observed(self, **labels: Any) -> Tuple[int, float]:
        """``(count, sum)`` of one series; ``(0, 0)`` before any observation."""
        key = self._key(labels)
        with self._lock:
            counts, total = self._series.get(key) or ([], 0)
            return sum(counts), total

    def samples(self) -> List[list]:
        with self._lock:
            return [
                [labels, {"counts": list(counts), "sum": total}]
                for labels, (counts, total) in self._items()
            ]


class Gauge:
    """A value read at collection: a number, or ``[(labels, value), ...]``."""

    kind = "gauge"

    def __init__(self, name: str, help: str, read: Callable[[], Any]) -> None:
        self.name, self.help, self._read = name, help, read

    def samples(self) -> List[list]:
        value = self._read()
        if isinstance(value, (int, float)):
            return [[{}, value]]
        return [[dict(_key(labels)), v] for labels, v in value]


class Registry:
    """The metric families of one process, each registered exactly once."""

    def __init__(self) -> None:
        self._families: Dict[str, Any] = {}

    def _add(self, family):
        if family.name in self._families:
            raise ValueError(f"metric family {family.name!r} registered twice")
        self._families[family.name] = family
        return family

    def counter(self, *args: Any, **kwargs: Any) -> Counter:
        """Register a :class:`Counter` (same arguments)."""
        return self._add(Counter(*args, **kwargs))

    def histogram(self, *args: Any, **kwargs: Any) -> Histogram:
        """Register a :class:`Histogram` (same arguments)."""
        return self._add(Histogram(*args, **kwargs))

    def gauge(self, *args: Any, **kwargs: Any) -> Gauge:
        """Register a :class:`Gauge` (same arguments)."""
        return self._add(Gauge(*args, **kwargs))

    def __getitem__(self, name: str):
        return self._families[name]

    def snapshot(self) -> Snapshot:
        """Every family, collected now, as a JSON-safe dict."""
        out: Snapshot = {}
        for name, family in sorted(self._families.items()):
            out[name] = {
                "type": family.kind, "help": family.help, "samples": family.samples()
            }
            if family.kind == "histogram":
                out[name]["buckets"] = list(family.buckets)
        return out


def merge(snapshots: Mapping[str, Snapshot]) -> Snapshot:
    """One snapshot from ``{worker: snapshot}``: sums, and gauges per worker."""
    merged: Snapshot = {}
    series: Dict[str, Dict[Labels, Any]] = {}
    for worker, snapshot in snapshots.items():
        for name, family in snapshot.items():
            if name not in merged:
                merged[name] = dict(family, samples=[])
                series[name] = {}
            acc = series[name]
            for labels, value in family["samples"]:
                if family["type"] == "gauge":
                    acc[_key(dict(labels, worker=worker))] = value
                    continue
                key = _key(labels)
                old = acc.get(key)
                if old is None:
                    acc[key] = value
                elif family["type"] == "counter":
                    acc[key] = old + value
                else:
                    counts = [a + b for a, b in zip(old["counts"], value["counts"])]
                    acc[key] = {"counts": counts, "sum": old["sum"] + value["sum"]}
    for name, family in merged.items():
        family["samples"] = [[dict(k), v] for k, v in sorted(series[name].items())]
    return dict(sorted(merged.items()))


def _escape(value: Any) -> str:
    """Escape a label value; backslashes first, or later escapes double up."""
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items()) + "}"


def render(snapshot: Snapshot) -> str:
    """Prometheus text exposition; a family with no samples renders nothing."""
    lines: List[str] = []
    for name, family in snapshot.items():
        if not family["samples"]:
            continue
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for labels, value in family["samples"]:
            if family["type"] != "histogram":
                lines.append(f"{name}{_labels(labels)} {value}")
                continue
            running = 0
            for edge, count in zip(family["buckets"] + ["+Inf"], value["counts"]):
                running += count
                lines.append(f"{name}_bucket{_labels(dict(labels, le=edge))} {running}")
            lines.append(f"{name}_count{_labels(labels)} {running}")
            lines.append(f"{name}_sum{_labels(labels)} {value['sum']}")
    return "".join(line + "\n" for line in lines)
