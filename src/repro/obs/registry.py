"""The metric registry: counters, gauges and histograms by dotted name.

Every layer of the system — the three remote-memory primitives, the RoCE
request generators under them, the RNIC model answering them, and the
cluster health monitor above them — emits into one
:class:`MetricRegistry` under hierarchical names::

    lookup.remote_lookups          statestore.operations_issued
    pktbuf[3].stored_packets       roce[tor->memserver].naks_received
    rnic[memserver-rnic].qp[17].requests_received
    cluster.member[m0].nak

Design constraints, in order:

* **Hot-path cheap.**  Primitives resolve their counters once at
  construction and hold direct references; an increment is
  ``counter.value += n`` in place, one integer add and no call
  (:meth:`Counter.inc` is for callers off the hot path).  Nothing is
  formatted or hashed per event.
* **Deterministic.**  Metrics keep registration order; snapshots sort by
  name; nothing samples wall-clock time.  Two fixed-seed runs produce
  byte-identical metric JSON.
* **Collision-free.**  Components claim a *scope* (name prefix) through
  :meth:`MetricRegistry.unique_scope`; a second lookup table on the same
  registry becomes ``lookup#2`` rather than silently sharing (and
  corrupting) the first table's counters.

* **One read path.**  Components expose their scope as ``metrics``;
  callers read a counter as ``table.metrics["local_hits"]``.  A read
  never registers: a name nobody registered raises ``KeyError`` instead
  of creating a zero counter that would move every later digest.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

MetricValue = Union[int, float]


class Counter:
    """A monotonically increasing integer metric."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount*; the data path writes ``counter.value += amount``
        itself and saves the call."""
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value; either set directly or computed on read.

    Pass ``fn`` to make a *function gauge* that samples live state at
    snapshot time (queue depths, outstanding windows) without the hot
    path maintaining a shadow copy.
    """

    kind = "gauge"
    __slots__ = ("name", "_value", "_fn")

    def __init__(
        self, name: str, fn: Optional[Callable[[], MetricValue]] = None
    ) -> None:
        self.name = name
        self._value: MetricValue = 0
        self._fn = fn

    def set(self, value: MetricValue) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is function-backed")
        self._value = value

    def add(self, delta: MetricValue) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is function-backed")
        self._value += delta

    @property
    def value(self) -> MetricValue:
        return self._fn() if self._fn is not None else self._value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A streaming distribution: count/sum/min/max plus log2 buckets.

    Bucket ``b`` holds observations whose integer part has bit length
    ``b`` (i.e. values in ``[2^(b-1), 2^b)``), which is plenty to read
    latency distributions off a metrics dump without storing every
    sample.  Percentiles are estimated from the bucket upper bounds.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimate the *fraction*-quantile from the bucket boundaries."""
        if not self.count:
            return 0.0
        target = max(1, int(round(fraction * self.count)))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return float(1 << bucket) if bucket else 0.0
        return float(self.max if self.max is not None else 0.0)

    @property
    def value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def to_dict(self) -> Dict[str, Any]:
        payload = dict(self.value)
        payload["buckets"] = {str(k): v for k, v in sorted(self.buckets.items())}
        return {"kind": self.kind, "value": payload}

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


Metric = Union[Counter, Gauge, Histogram]


class MetricScope:
    """A name prefix bound to a registry; components hold one of these.

    ``scope.counter("naks")`` is ``registry.counter(f"{prefix}.naks")``;
    ``scope["naks"]`` reads its value.
    """

    __slots__ = ("registry", "name")

    def __init__(self, registry: "MetricRegistry", name: str) -> None:
        self.registry = registry
        self.name = name

    def _full(self, leaf: str) -> str:
        return f"{self.name}.{leaf}" if self.name else leaf

    def counter(self, leaf: str) -> Counter:
        return self.registry.counter(self._full(leaf))

    def gauge(
        self, leaf: str, fn: Optional[Callable[[], MetricValue]] = None
    ) -> Gauge:
        return self.registry.gauge(self._full(leaf), fn=fn)

    def histogram(self, leaf: str) -> Histogram:
        return self.registry.histogram(self._full(leaf))

    def child(self, leaf: str) -> "MetricScope":
        return MetricScope(self.registry, self._full(leaf))

    def __getitem__(self, leaf: str) -> Any:
        """The value of the registered metric *leaf*; ``KeyError`` if none."""
        return self.registry._metrics[self._full(leaf)].value

    def __repr__(self) -> str:
        return f"<MetricScope {self.name!r}>"


class MetricRegistry:
    """All metrics of one simulation (or one CLI session), by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._claimed_scopes: set = set()

    # -- creation ------------------------------------------------------------

    def _get_or_create(self, name: str, cls: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(
        self, name: str, fn: Optional[Callable[[], MetricValue]] = None
    ) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name, fn=fn)
            self._metrics[name] = metric
        elif type(metric) is not Gauge:
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def unique_scope(self, base: str) -> MetricScope:
        """Claim an unclaimed scope: ``base``, else ``base#2``, ``base#3``…

        Components that can be instantiated more than once per registry
        (tables, stores, buffers, channels) use this so their counters
        never alias.
        """
        name = base
        n = 1
        while name in self._claimed_scopes:
            n += 1
            name = f"{base}#{n}"
        self._claimed_scopes.add(name)
        return MetricScope(self, name)

    def remove_scope(self, prefix: str) -> None:
        """Drop every metric under ``prefix.`` and release the scope."""
        dotted = prefix + "."
        for name in [n for n in self._metrics if n.startswith(dotted)]:
            del self._metrics[name]
        self._claimed_scopes.discard(prefix)

    # -- reading -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, default: Any = None) -> Any:
        metric = self._metrics.get(name)
        return metric.value if metric is not None else default

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Flat ``{name: value}`` map, sorted, optionally prefix-filtered."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if not prefix or name == prefix or name.startswith(prefix + ".")
        }

    def to_dict(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """Structured ``{name: {kind, value}}`` map for JSON export."""
        return {
            name: metric.to_dict()
            for name, metric in sorted(self._metrics.items())
            if not prefix or name == prefix or name.startswith(prefix + ".")
        }

    def total(self, suffix: str) -> MetricValue:
        """Sum of every counter/gauge whose name ends with ``.suffix``."""
        dotted = "." + suffix
        return sum(
            m.value
            for name, m in self._metrics.items()
            if (name == suffix or name.endswith(dotted))
            and not isinstance(m, Histogram)
        )

    def __repr__(self) -> str:
        return f"<MetricRegistry {len(self._metrics)} metrics>"
