"""Span tracing over jordanblocks' public functions, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
every jordanblocks module namespace that binds it, because cli, reports and
construction import functions by name. Spans are (name, start, end, parent)
tuples kept in memory; a layer's self time is its spans' durations minus
the time their direct children cover.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import sys
from time import perf_counter

# (module, function) pairs; "JordanType.new" and "JordanType.add" are the
# class's constructor and multiset union.
TRACED = (
    ("cli", "main"),
    ("reports", "build_report"),
    ("rules", "validate_classical"),
    ("rules", "rule_case"),
    ("rules", "adjoint_rule"),
    ("rules", "sp_w2_rule"),
    ("rules", "so_2w1_rule"),
    ("oracle", "tensor_block_type"),
    ("oracle", "tensor_dual_type"),
    ("oracle", "ext2_type"),
    ("oracle", "sym2_type"),
    ("oracle", "jordan_type_of"),
    ("construction", "build_adjoint_action"),
    ("recursions", "gpx_scale"),
    ("recursions", "reflect_rule"),
    ("recursions", "free_rule"),
    ("recursions", "clebsch_gordan"),
    ("linalg", "jordan_block"),
    ("linalg", "kronecker"),
    ("linalg", "dual_action"),
    ("linalg", "block_diagonal"),
    ("linalg", "exterior_square"),
    ("linalg", "symmetric_square"),
    ("partitions", "partitions_of"),
    ("partitions", "parse_jordan_type"),
    ("partitions", "JordanType.new"),
    ("partitions", "JordanType.add"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
ROOT = "bench.loop"
_METHODS = {"JordanType.new": "__init__", "JordanType.add": "__add__"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.pair_keys: set = set()
        self.counters = {
            "oracle.tensor_block_type.new_keys": 0,
            "oracle.tensor_block_type.side_max": 0,
            "oracle.jordan_type_of.side_sum": 0,
            "construction.build_adjoint_action.side_sum": 0,
        }

    # ------------------------------------------------------------ spans

    def _enter(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, perf_counter()

    def _exit(self, name: str, sid: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, self._stack[-1] if self._stack else -1)

    @contextlib.contextmanager
    def root(self):
        """The span that covers the whole traced loop."""
        sid, start = self._enter()
        try:
            yield
        finally:
            self._exit(ROOT, sid, start)

    def _wrap(self, name: str, fn, observe=None):
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, which is where its work runs.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, start = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(name, sid, start)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid, start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, sid, start)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # ---------------------------------------------------------- counters

    def _observe_pair(self, args, result) -> None:
        m, n, p = args[:3]
        key = (min(m, n), max(m, n), p)
        if key not in self.pair_keys:
            self.pair_keys.add(key)
            self.counters["oracle.tensor_block_type.new_keys"] += 1
        side = m * n
        if side > self.counters["oracle.tensor_block_type.side_max"]:
            self.counters["oracle.tensor_block_type.side_max"] = side

    def _observe_jordan(self, args, result) -> None:
        self.counters["oracle.jordan_type_of.side_sum"] += args[0].rows

    def _observe_adjoint(self, args, result) -> None:
        self.counters["construction.build_adjoint_action.side_sum"] += result.rows

    # ------------------------------------------------------------ install

    def install(self) -> None:
        observers = {
            "oracle.tensor_block_type": self._observe_pair,
            "oracle.jordan_type_of": self._observe_jordan,
            "construction.build_adjoint_action": self._observe_adjoint,
        }
        modules = [m for name, m in list(sys.modules.items()) if name == "jordanblocks" or name.startswith("jordanblocks.")]
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            home = sys.modules[f"jordanblocks.{mod}"]
            if fn in _METHODS:
                cls = home.JordanType
                attr = _METHODS[fn]
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(home, fn)
            wrapper = self._wrap(name, original, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per-layer calls and self seconds, root included, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYER_NAMES + (ROOT,), 0)
        self_s = dict.fromkeys(LAYER_NAMES + (ROOT,), 0.0)
        wall = 0.0
        for (name, start, end, parent), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - covered
            if parent < 0:
                wall += end - start
        return {"calls": calls, "self_s": self_s, "wall_s": wall, "counters": dict(self.counters)}

    def write(self, path) -> None:
        """Spans as gzipped text, one `name start end parent` line each."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name} {start:.9f} {end:.9f} {parent}\n")
