"""Span tracer for the benchmark's traced runs.

The tracer wraps concrec's layer entry points from outside the program:
every attribute of a loaded ``concrec`` module that refers to a listed
function is replaced by a wrapper that records one span per call (name,
start, end, parent span).  All spans of a worker belong to its one
operation.  Spans live in flat in-memory columns and are written to one
``.npz`` file when the operation ends; the per-layer metrics are derived
from them afterwards, so the live cost per call stays a few appends.

Counts are taken at the same boundaries:

- spectrum builds, rebuilds of a ``(state, copies)`` already built, and the
  levels built, from ``power_spectrum`` calls;
- trade-off points, from the conversion calls they make.  A point is a
  maximal run of ``concentration_fidelity`` / ``dilution_fidelity`` calls
  in which each function keeps one spectrum copy count and sees no target
  dimension twice.  Its m evaluated are the distinct target dimensions, and
  its ``m_cap`` is ``N * ceil(log2 rank)`` with N the dilution copy count.
  Target dimensions are told apart by bit length: the trade-off layer asks
  only for powers of two.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer -> (module, entry points).  The spectrum module's prefix-mass and
# log2 helpers are left out on purpose: they run inside every conversion
# call, millions of times per figure, and a span on them would cost more
# than the work it measures.
LAYERS = {
    "spectrum": ("concrec.spectrum", ("power_spectrum", "make_schmidt")),
    "conversion": (
        "concrec.conversion",
        (
            "concentration_fidelity",
            "dilution_fidelity",
            "concentration_error",
            "dilution_error",
            "flatten_index",
            "brute_force_fidelity",
        ),
    ),
    "tradeoff": (
        "concrec.tradeoff",
        ("generalized_mcre", "mcre", "max_recoverable", "delta_curve"),
    ),
    "asymptotics": (
        "concrec.asymptotics",
        (
            "profile",
            "normal_cdf",
            "normal_quantile",
            "K",
            "prop3_limits",
            "mcre_limit",
            "nmax_approx",
            "loss_coefficient",
        ),
    ),
    "cli": ("concrec.cli", ("main", "run_figure")),
}
CONVERSIONS = ("conversion.concentration_fidelity", "conversion.dilution_fidelity")


class Tracer:
    """Records spans and layer counts for one operation in this process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = [-1]
        # One row per conversion call: its span, spectrum copies and rank,
        # and the bit length of the target dimension.
        self.conv_span = array("i")
        self.conv_copies = array("q")
        self.conv_rank = array("q")
        self.conv_bits = array("q")
        self.builds = 0
        self.rebuilds = 0
        self.levels = 0
        self._built: set = set()

    def install(self) -> None:
        """Replace every reference to a listed function in loaded concrec modules."""
        wrappers = {}
        for layer, (module_name, functions) in LAYERS.items():
            module = sys.modules[module_name]
            for fn_name in functions:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                name = f"{layer}.{fn_name}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "concrec" and not module_name.startswith("concrec."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _name_index(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def _wrap(self, name, fn):
        name_idx = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        conv_span, conv_copies = self.conv_span, self.conv_copies
        conv_rank, conv_bits = self.conv_rank, self.conv_bits
        clock = time.perf_counter
        is_build = name == "spectrum.power_spectrum"
        is_conversion = name in CONVERSIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_start)
            span_name.append(name_idx)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                # Inside the span, so this bookkeeping is not charged to the
                # caller's self time.
                if is_conversion:
                    ls, L = (*args, *kwargs.values())[:2]
                    conv_span.append(i)
                    conv_copies.append(ls.copies)
                    conv_rank.append(ls.base.rank)
                    conv_bits.append(L.bit_length())
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                span_start[i] = t0
                stack.pop()
            if is_build:
                self._on_build(args, kwargs, result)
            return result

        return traced

    def _on_build(self, args, kwargs, result) -> None:
        key = (args[0] if args else kwargs["sv"], args[1] if len(args) > 1 else kwargs["n"])
        self.builds += 1
        self.rebuilds += key in self._built
        self._built.add(key)
        self.levels += result.num_levels

    def write(self, path, op_id: int) -> None:
        """Write the spans as columns, with times relative to the first span."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = start[0] if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            op=np.full(start.size, op_id, dtype=np.int32),
        )

    def _points(self, name: np.ndarray, parent: np.ndarray) -> dict:
        """Trade-off points, m evaluated and m_cap, from the conversion rows."""
        search = self._name_index("tradeoff.max_recoverable")
        conc = self._name_index(CONVERSIONS[0])
        points = m_evaluated = m_cap = search_points = 0
        copies: dict[bool, int] = {}
        targets: dict[bool, set] = {True: set(), False: set()}
        rank = 0

        def close():
            nonlocal points, m_evaluated, m_cap
            if copies:
                N = copies.get(False, copies.get(True))
                points += 1
                m_evaluated += len(targets[True] | targets[False])
                m_cap += max(1, N * (rank - 1).bit_length())

        spans = np.frombuffer(self.conv_span, dtype=np.int32)
        rows = zip(
            spans.tolist(),
            (name[spans] == conc).tolist(),
            self.conv_copies,
            self.conv_rank,
            self.conv_bits,
        )
        for span, is_conc, n_copies, n_rank, bits in rows:
            if copies.get(is_conc, n_copies) != n_copies or bits in targets[is_conc]:
                close()
                copies.clear()
                targets = {True: set(), False: set()}
            if not copies:
                rank = n_rank
                ancestor = parent[span]
                while ancestor >= 0 and name[ancestor] != search:
                    ancestor = parent[ancestor]
                search_points += bool(ancestor >= 0)
            copies[is_conc] = n_copies
            targets[is_conc].add(bits)
        close()
        return {
            "points": points,
            "m_evaluated": m_evaluated,
            "m_cap": m_cap,
            "search_points": search_points,
        }

    def summary(self) -> dict:
        """Per-layer counts and times of the recorded operation."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        layer_idx = {layer: k for k, layer in enumerate(LAYERS)}
        name_layer = np.array([layer_idx[n.split(".")[0]] for n in self.names], dtype=np.int32)
        span_layer = name_layer[name]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        layer_top = span_layer != parent_layer

        def by_name(fn_name):
            return name == self._name_index(fn_name)

        def in_layer(layer):
            return span_layer == layer_idx[layer]

        conc, dil = by_name(CONVERSIONS[0]), by_name(CONVERSIONS[1])
        return {
            "spans": int(dur.size),
            "root_s": float(dur[~has_parent].sum()),
            "builds": self.builds,
            "rebuilds": self.rebuilds,
            "levels": self.levels,
            "build_s": float(dur[by_name("spectrum.power_spectrum")].sum()),
            "conc_calls": int(conc.sum()),
            "conc_s": float(dur[conc].sum()),
            "dil_calls": int(dil.sum()),
            "dil_s": float(dur[dil].sum()),
            "searches": int(by_name("tradeoff.max_recoverable").sum()),
            **self._points(name, parent),
            "tradeoff_self_s": float(self_time[in_layer("tradeoff")].sum()),
            "asymptotics_s": float(dur[in_layer("asymptotics") & layer_top].sum()),
            "cli_self_s": float(self_time[in_layer("cli")].sum()),
        }
