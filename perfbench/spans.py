"""Span files written by ``tracer.py`` and the arithmetic done on them.

A span is (name, start, end, parent) with times in nanoseconds of the
monotonic clock that ``time.perf_counter_ns`` reads, which child processes
share with the harness.  A traced process keeps its spans in four parallel
arrays and writes them out once, at exit:

    <path>.json   {"names": [...], "counters": {...}, "spans": N}
    <path>.bin    N name ids, N parent indices (-1 for a root),
                  N starts, N ends; each an array of signed 64-bit ints
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass


@dataclass
class Spans:
    names: list[str]
    counters: dict[str, int]
    ids: array
    parents: array
    starts: array
    ends: array


def write(path: str, spans: Spans) -> None:
    header = {"names": spans.names, "counters": spans.counters, "spans": len(spans.ids)}
    with open(path + ".json", "w") as f:
        json.dump(header, f)
    with open(path + ".bin", "wb") as f:
        for column in (spans.ids, spans.parents, spans.starts, spans.ends):
            column.tofile(f)


def read(path: str) -> Spans:
    with open(path + ".json") as f:
        header = json.load(f)
    count = header["spans"]
    columns = []
    with open(path + ".bin", "rb") as f:
        for _ in range(4):
            column = array("q")
            column.fromfile(f, count)
            columns.append(column)
    return Spans(header["names"], header["counters"], *columns)


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so self times are never negative and, for spans that
    nest properly, they add up to the total duration of the root spans.
    """
    children: list[list[int]] = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, kids in enumerate(children):
        low, high = starts[index], ends[index]
        covered = 0
        run_start = run_end = low
        for kid in sorted(kids, key=starts.__getitem__):
            start, end = max(starts[kid], low), min(ends[kid], high)
            if end <= start:
                continue
            if start > run_end:
                covered += run_end - run_start
                run_start = start
            run_end = max(run_end, end)
        covered += run_end - run_start
        result.append(high - low - covered)
    return result


@dataclass
class Totals:
    """Per span name: how many spans, their summed duration and summed self time."""

    calls: dict[str, int]
    total_ns: dict[str, int]
    self_ns: dict[str, int]
    root_ns: int

    def add(self, other: "Totals") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.total_ns, other.total_ns),
            (self.self_ns, other.self_ns),
        ):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
        self.root_ns += other.root_ns


def totals(spans: Spans) -> Totals:
    selfs = self_times(spans.parents, spans.starts, spans.ends)
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    root_ns = 0
    for index, name_id in enumerate(spans.ids):
        name = spans.names[name_id]
        duration = spans.ends[index] - spans.starts[index]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + duration
        self_ns[name] = self_ns.get(name, 0) + selfs[index]
        if spans.parents[index] < 0:
            root_ns += duration
    return Totals(calls, total_ns, self_ns, root_ns)


def nesting_errors(spans: Spans, low: int, high: int) -> list[str]:
    """Spans that end before they start or leave their parent's interval.

    Root spans must lie inside [low, high], the process lifetime as the
    harness measured it on the same clock.
    """
    errors = []
    for index, parent in enumerate(spans.parents):
        start, end = spans.starts[index], spans.ends[index]
        outer = (low, high) if parent < 0 else (spans.starts[parent], spans.ends[parent])
        if not outer[0] <= start <= end <= outer[1]:
            name = spans.names[spans.ids[index]]
            errors.append(f"span {index} ({name}) [{start}, {end}] outside {list(outer)}")
    return errors
