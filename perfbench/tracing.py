"""Spans around torsionkit's public functions, recorded from outside.

``Tracer.install`` rebinds each listed function in every torsionkit module
that holds it (``validate_word`` lives in grouprings, cyclofield and
simpleops), so calls between modules go through the wrapper too;
``CycloNum`` operators look ``cyclo_mul`` up in cyclofield's globals and are
traced the same way.  Each span stores its name, start, end, parent span and
op id in flat arrays; ``summarize`` derives calls, total and self time per
name, where self time is the span's duration minus the time its child
spans cover.
"""
from __future__ import annotations

import gzip
import struct
import sys
import time
from array import array

# (module, function) pairs whose spans the benchmark reports.
TRACED = (
    ("cli", "main"),
    ("lensspaces", "lens_torsion"),
    ("lensspaces", "torsion_distinguish"),
    ("lensspaces", "free_product_scenario"),
    ("torsion", "fingerprint"),
    ("torsion", "torsion_of_map"),
    ("torsion", "reidemeister_torsion"),
    ("torsion", "field_torsion"),
    ("simpleops", "cert_from_obj"),
    ("simpleops", "replay"),
    ("simpleops", "apply_op"),
    ("chaincomplex", "complex_from_obj"),
    ("chaincomplex", "mapping_cone"),
    ("chaincomplex", "base_change"),
    ("cyclofield", "unit_subgroup"),
    ("cyclofield", "canonical_rep"),
    ("cyclofield", "cyclo_inv"),
    ("cyclofield", "cyclo_mul"),
    ("cyclofield", "evaluate_rep"),
    ("grouprings", "ring_mul"),
    ("grouprings", "word_multiply"),
    ("grouprings", "validate_word"),
)

# lru_cached functions whose hit ratio the benchmark reports.
CACHED = (("cyclofield", "unit_subgroup"), ("lensspaces", "lens_torsion"))

MODULES = ("cli", "lensspaces", "torsion", "chaincomplex", "cyclofield", "simpleops", "grouprings")

_SPAN = struct.Struct("<iiqdd")  # name id, parent index, op id, start, end


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "torsionkit" or k.startswith("torsionkit.")]


class Tracer:
    """In-memory span recorder; one per traced phase of a run."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, name_id: int, fn):
        """A wrapper that records one span per call of ``fn``."""
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Rebind every traced function in every torsionkit module."""
        import torsionkit  # noqa: F401  (the package must be importable)

        modules = _package_modules()
        for name_id, (mod, fn) in enumerate(TRACED):
            orig = getattr(sys.modules[f"torsionkit.{mod}"], fn)
            wrapper = self.wrap(name_id, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._rebound.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound.clear()

    def summarize(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per traced name."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path, max_op_id: int) -> None:
        """Spans of ops below ``max_op_id`` (the first traced pass), gzipped:
        a tab-separated header of names, then fixed-size binary records."""
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            pack, buf = _SPAN.pack, bytearray()
            for i in range(len(self.name_of)):
                if self.op_of[i] < max_op_id:
                    buf += pack(self.name_of[i], self.parent[i], self.op_of[i], self.start[i], self.end[i])
            fh.write(buf)


def cache_functions() -> list:
    """Every functools cache held by a torsionkit module, deduplicated."""
    seen: dict[int, object] = {}
    for m in _package_modules():
        for value in vars(m).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                seen.setdefault(id(value), value)
    return list(seen.values())
