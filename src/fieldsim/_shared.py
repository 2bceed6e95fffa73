"""Plumbing shared by the co-simulation, sweep and safety layers.

One name rule, one text reader, one CSV table reader, one JSON reader, one
set of document checks, one ordered process fan-out and one children-first
graph walk.  The document checks state a JSON document's shape after JSON
Schema's ``required``, ``additionalProperties`` and ``type``: each returns
the value it passes or raises :class:`ConfigError` with one text per rule,
after a located prefix ``where`` that the caller builds from names only.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError


def is_plain_name(name) -> bool:
    """Whether ``name`` can name an entry inside a directory and one CSV field."""
    return isinstance(name, str) and name not in ("", ".", "..") and not any(c in name for c in "/\\,\n\r")


def read_text(path: Path) -> str:
    """A file's text; bytes that do not decode are a :class:`ConfigError` naming the file."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc.reason} at byte {exc.start}") from None


def read_csv_table(
    path: Path, text_columns: int = 0
) -> tuple[list[str], Iterator[tuple[int, list]]]:
    """A CSV table's header and its data lines, each as (line number, fields).

    Every header column needs its own non-empty name.  A data line has one
    field per column: the first ``text_columns`` stay strings and the rest
    must be finite numbers.  Blank lines are skipped.  Lines are parsed as
    they are drawn, so a caller checks the header before any data line.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    for i, name in enumerate(header):
        if not name:
            raise ConfigError(f"{path}:1: header has an empty column name")
        if name in header[:i]:
            raise ConfigError(f"{path}:1: header names column {name!r} more than once")
    return header, _csv_rows(path, lines, len(header), text_columns)


def _csv_rows(path: Path, lines: list[str], width: int, text_columns: int):
    isfinite = math.isfinite
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ConfigError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            numbers = list(map(float, fields[text_columns:]))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed number in {line!r}") from None
        if not all(map(isfinite, numbers)):
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        yield lineno, fields[:text_columns] + numbers


def read_json(source: str | Path | Mapping):
    """Decode a JSON file; an already-parsed document passes through."""
    if not isinstance(source, (str, Path)):
        return source
    path = source if isinstance(source, Path) else Path(source)  # a copy would build its text again
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def check_object(where: str, doc, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``doc`` when it is an object with every ``required`` key and no key beyond ``optional``."""
    # one plain loop, the cheapest: a suite checks every connection of each run's loop twice
    if isinstance(doc, dict):
        found = 0  # required keys seen; an unknown key goes first, as it may be a misspelt one
        for key in doc:
            if key in required:
                found += 1
            elif key not in optional:
                unknown = sorted(map(str, doc.keys() - {*required, *optional}))
                raise ConfigError(f"{where}: unknown keys {', '.join(unknown)}")
        if found == len(required):
            return doc
    *first, last = map(repr, required)
    raise ConfigError(f"{where} needs {', '.join(first)} and {last}" if first else f"{where} needs a {last}")


def check_kind(where: str, key: str, value, kind: type):
    """``value`` when it is an instance of ``kind``: ``dict``, ``list`` or ``str``."""
    if not isinstance(value, kind):
        wanted = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigError(f"{where}: {key!r} must be {wanted}, got {value!r}")
    return value


def check_names(where: str, key: str, value) -> tuple[str, ...]:
    """A list of strings, as a tuple."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{where}: {key!r} must be a list of names, got {value!r}")
    return tuple(value)


def check_flag(where: str, key: str, value) -> bool:
    """JSON ``true`` or ``false``; no other value stands in for one."""
    if value is not True and value is not False:
        raise ConfigError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


def check_number(where: str, key: str, value, finite: bool = True) -> float:
    """A JSON number as a float; NaN, bools, integers past the floats and, if ``finite``, infinities fail."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer past the floats
        number = math.nan
    if not math.isfinite(number) and (finite or math.isnan(number)):
        raise ConfigError(f"{where}: {key!r} must be a number, got {value!r}")
    return number


def worker_count(workers: int) -> int:
    """``workers`` capped at the CPUs this process may run on; below one is a :class:`ConfigError`."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, cpus)


def fan_out(fn: Callable, tasks: Sequence, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on up to ``workers`` processes.

    Results come back in task order whatever the worker count.  The pool
    never has more processes than tasks or than :func:`worker_count`
    allows, and hands the tasks out one at a time; with one process, the
    tasks run here.
    """
    workers = min(worker_count(workers), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def postorder(
    children: Callable[[str], Iterable[str]], roots: Iterable[str], what: str
) -> list[str]:
    """Every node reachable from ``roots``, each after all of its children.

    Walks depth first without recursion, so chains of any depth are
    fine.  A cycle raises :class:`ConfigError` naming the node where the
    walk first meets it again.
    """
    order: list[str] = []
    done: dict[str, bool] = {}  # False while on the walk's path, True once emitted
    for root in roots:
        if root in done:
            continue
        done[root] = False
        stack = [(root, iter(children(root)))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                state = done.get(child)
                if state is None:
                    done[child] = False
                    stack.append((child, iter(children(child))))
                    break
                if state is False:
                    raise ConfigError(f"{what} has a cycle through {child!r}")
            else:
                stack.pop()
                done[node] = True
                order.append(node)
    return order
