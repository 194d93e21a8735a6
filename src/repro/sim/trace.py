"""Trace and metric collection.

Experiments record one :class:`SendRecord` per application message
sent and one :class:`DeliveryRecord` per message delivered (or
expired), and increment named :class:`Counter` values for
protocol-level events (retransmissions, drops, control bytes, ...).
The analysis helpers in :mod:`repro.analysis.metrics` consume these.

A run records hundreds of thousands of messages, so no Python object
is kept per record: each kind is a set of append-only ``array``
columns, and a record a reader gets is a *row* — a ``(log, row)`` pair
whose fields read the columns — not a value copy, because readers hold
whole windows of records at once.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from operator import attrgetter, eq


class _Interned(dict):
    """Name -> id; a new name gets the next id, ``names`` maps back."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        super().__init__()
        self.names: list = []

    def __missing__(self, name) -> int:
        self[name] = key = len(self.names)
        self.names.append(name)
        return key


class _Log(Sequence):
    """Append-only columns of one record kind (``'d'`` times, NaN for
    ``None``; ``'q'`` seq and size; ``'I'`` ids of interned text),
    read as the rows ``[start, stop)``. ``stop=None`` follows the
    columns as ``kind._append`` grows them; a slice has fixed bounds, a
    snapshot as a list slice is. Row indexes per key fold in new rows
    on query."""

    __slots__ = ("kind", "cols", "ids", "names", "start", "stop",
                 "indexes", "indexed")

    def __init__(self, kind: type, ids: _Interned, cols: tuple = (),
                 start: int = 0, stop: int | None = None) -> None:
        self.kind = kind
        self.cols = cols or tuple(array(code) for code in kind._codes)
        self.ids = ids
        self.names = ids.names
        self.start = start
        self.stop = stop
        self.indexes: dict[int, dict] = {}
        self.indexed: dict[int, int] = {}

    def __len__(self) -> int:
        stop = len(self.cols[0]) if self.stop is None else self.stop
        return stop - self.start

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            return _Log(self.kind, self.ids, self.cols, self.start + start,
                        self.start + max(start, stop))
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        return self.row(self.start + index)

    def __iter__(self):
        return map(self.row, range(self.start, self.start + len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def row(self, row: int) -> _Row:
        record = _new(self.kind)
        record._log, record._row = self, row
        return record

    def where(self, field: int, name) -> list:
        """Rows whose text column ``field`` holds ``name``, in order."""
        index = self.indexes.setdefault(field, {})
        column = self.cols[field]
        for row in range(self.indexed.get(field, 0), len(column)):
            rows = index.get(column[row])
            if rows is None:
                rows = index[column[row]] = array("I")
            rows.append(row)
        self.indexed[field] = len(column)
        return list(map(self.row, index.get(self.ids.get(name), ())))


_new = object.__new__


def _column(field: int, code: str) -> property:
    if code == "I":
        return property(lambda r: r._log.names[r._log.cols[field][r._row]])
    if code == "d":  # NaN reads back as None
        return property(lambda r: None if (v := r._log.cols[field][r._row]) != v else v)
    return property(lambda r: r._log.cols[field][r._row])


class _Row:
    """A record as a row of a :class:`_Log`: read-only fields; equality,
    hash, ``repr`` and pickling by value, as for a frozen dataclass. A
    record built standalone is row 0 of a private log."""

    __slots__ = ("_log", "_row")

    def __init_subclass__(cls) -> None:
        for field, (name, code) in enumerate(zip(cls._fields, cls._codes)):
            setattr(cls, name, _column(field, code))
        cls._values = attrgetter(*cls._fields)

    def _standalone(self) -> _Log:
        self._log = log = _Log(type(self), _Interned())
        self._row = 0
        return log

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value
                         in zip(self._fields, self._values(self)))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


class DeliveryRecord(_Row):
    """One application message outcome at one destination.

    Attributes:
        flow: Flow identifier the message belonged to.
        seq: Application sequence number of the message.
        sent_at: Simulated time the source sent the message.
        delivered_at: Simulated delivery time, or ``None`` if never delivered.
        destination: Identifier of the receiving endpoint.
        size: Payload size in bytes.
    """

    __slots__ = ()
    _fields = ("flow", "seq", "sent_at", "delivered_at", "destination", "size")
    _codes = "IqddIq"

    def __init__(self, flow: str, seq: int, sent_at: float,
                 delivered_at: float | None, destination: str,
                 size: int = 0) -> None:
        self._append(self._standalone(), flow, seq, sent_at, delivered_at,
                     destination, size)

    @staticmethod
    def _append(log, flow, seq, sent_at, delivered_at, destination, size):
        cols, ids = log.cols, log.ids
        cols[0].append(ids[flow])
        cols[1].append(seq)
        cols[2].append(sent_at)
        cols[3].append(math.nan if delivered_at is None else delivered_at)
        cols[4].append(ids[destination])
        cols[5].append(size)

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def latency(self) -> float | None:
        """One-way latency in seconds, or ``None`` if not delivered."""
        delivered_at = self.delivered_at
        if delivered_at is None:
            return None
        return delivered_at - self.sent_at

    def within(self, deadline: float) -> bool:
        """True if delivered within ``deadline`` seconds of being sent."""
        latency = self.latency
        return latency is not None and latency <= deadline


class SendRecord(_Row):
    """One application message entering the overlay at its source."""

    __slots__ = ()
    _fields = ("flow", "seq", "sent_at", "size", "dst")
    _codes = "IqdqI"

    def __init__(self, flow: str, seq: int, sent_at: float, size: int,
                 dst: str) -> None:
        self._append(self._standalone(), flow, seq, sent_at, size, dst)

    @staticmethod
    def _append(log, flow, seq, sent_at, size, dst):
        cols, ids = log.cols, log.ids
        cols[0].append(ids[flow])
        cols[1].append(seq)
        cols[2].append(sent_at)
        cols[3].append(size)
        cols[4].append(ids[dst])


class Counter:
    """A dict-backed named counter with a tiny convenience API."""

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] += amount

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({dict(self._values)!r})"


class TraceCollector:
    """Collects send/delivery records and counters for one run.

    ``sends`` / ``records`` are read-only live sequences of rows;
    :meth:`record_send` / :meth:`record_delivery` are the only writers.
    The per-key accessors (:meth:`for_flow`, :meth:`sends_for_flow`,
    :meth:`for_destination`) are served from row indexes instead of
    scanning — long experiments query traces per flow thousands of
    times.
    """

    def __init__(self) -> None:
        ids = _Interned()
        self.sends = _Log(SendRecord, ids)
        self.records = _Log(DeliveryRecord, ids)
        self.counters = Counter()

    def record_send(self, flow: str, seq: int, sent_at: float, size: int,
                    dst: str) -> None:
        SendRecord._append(self.sends, flow, seq, sent_at, size, dst)

    def sends_for_flow(self, flow: str) -> list[SendRecord]:
        return self.sends.where(0, flow)

    def record_delivery(self, flow: str, seq: int, sent_at: float,
                        delivered_at: float | None, destination: str,
                        size: int = 0) -> None:
        DeliveryRecord._append(self.records, flow, seq, sent_at,
                               delivered_at, destination, size)

    def for_flow(self, flow: str) -> list[DeliveryRecord]:
        return self.records.where(0, flow)

    def for_destination(self, destination: str) -> list[DeliveryRecord]:
        return self.records.where(4, destination)
