"""Per-layer self time and counts, recorded from outside the toolkit.

The tracer wraps the public functions listed in LAYERS.  A function is
rebound in every gt_toolkit module that holds it under some name (for
example ``togliatti`` imports ``integer_rank`` by name), and methods are
wrapped on their class.  Each thread keeps its own span stack, because
``verify-paper`` may run its checks on executor threads.  Spans are folded
into per-layer totals in memory as they close: a layer's self time is its
spans' duration minus the part covered by wrapped callees.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module under gt_toolkit, function or Class.method); the metric prefix
# of each layer is "module.qualname".
LAYERS = (
    ("cli", "main"),
    ("exactalg", "integer_rank"),
    ("exactalg", "SparseEliminator.add"),
    ("togliatti", "quotient_basis"),
    ("togliatti", "wlp_fails_in_degree"),
    ("toricideal", "fiber_partition"),
    ("toricideal", "minimal_generators"),
    ("actions", "invariant_monomials"),
    ("actions", "count_invariants"),
    ("hilbert", "hf_by_counting"),
    ("hilbert", "hf_reduced"),
    ("hilbert", "surface_profile"),
    ("resolution", "betti_table"),
    ("resolution", "generator_counts"),
    ("resolution", "series_from_betti"),
    ("semigroups", "member"),
    ("semigroups", "lattice_member"),
    ("semigroups", "trung_cm_check"),
    ("semigroups", "is_normal_up_to"),
    ("verify", "run_reference_checks"),
)


def _matrix_cells(tracer, stats, args, result):
    rows = args[0]
    if hasattr(rows, "entries"):
        stats["cells"] += len(rows.entries)
    else:
        stats["cells"] += sum(len(r) for r in rows)


def _useful_add(tracer, stats, args, result):
    stats["useful"] += bool(result)


def _fiber_multisets(tracer, stats, args, result):
    stats["multisets"] += sum(len(ms) for ms in result.fibers.values())


def _repeated_arguments(tracer, stats, args, result):
    key = tuple(args)
    stats["repeats"] += key in tracer.seen_invariant_args
    tracer.seen_invariant_args.add(key)


def _members(tracer, stats, args, result):
    stats["members"] += bool(result.member)


def _trung_stats(tracer, stats, args, result):
    stats["lattice_points"] += result.stats["lattice_points"]
    stats["pair_hits"] += result.stats["pair_hits"]


# counters recorded from a layer's arguments and result
_COUNTERS = {
    "exactalg.integer_rank": (_matrix_cells, ("cells",)),
    "exactalg.SparseEliminator.add": (_useful_add, ("useful",)),
    "toricideal.fiber_partition": (_fiber_multisets, ("multisets",)),
    "actions.invariant_monomials": (_repeated_arguments, ("repeats",)),
    "semigroups.member": (_members, ("members",)),
    "semigroups.trung_cm_check": (_trung_stats, ("lattice_points",
                                                 "pair_hits")),
}


class Tracer:
    """Wraps the layers of an imported gt_toolkit; stats stay in memory."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.seen_invariant_args: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gt_toolkit" or name.startswith("gt_toolkit.")]
        for module_name, qualname in LAYERS:
            module = sys.modules.get(f"gt_toolkit.{module_name}")
            if module is None:
                continue
            layer = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue
                original = vars(cls)[method]
                setattr(cls, method, self._wrap(layer, original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                continue
            wrapped = self._wrap(layer, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        hook, counters = _COUNTERS.get(layer, (None, ()))
        stats = self.stats.setdefault(
            layer, {"calls": 0, "total_ns": 0, "self_ns": 0,
                    **{c: 0 for c in counters}})
        local, lock, clock = self._local, self._lock, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stats["calls"] += 1
                    stats["total_ns"] += elapsed
                    stats["self_ns"] += elapsed - covered
            if hook is not None:
                with lock:
                    hook(self, stats, args, result)
            return result

        return wrapper
