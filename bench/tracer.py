"""Per-layer spans around public qlat functions, installed from outside.

``Tracer.install`` wraps each function named in ``SPANS`` and rebinds the
wrapper wherever the package holds the function: every ``qlat.*`` module
namespace that imported it (``from .x import f``), the ``cli._HANDLERS``
table, and the owning class for methods.  A function that no longer
exists is reported as absent with zero calls.

A timed span records calls and self time: its duration minus the time
covered by the timed spans it called.  A counted span records calls only,
for functions too hot to time without distorting their callers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import wraps

TIMED, COUNTED = "timed", "counted"

# (layer module, function or Class.method, mode)
SPANS = (
    ("exact_padic", "valuation", COUNTED),
    ("exact_padic", "Mat2.__mul__", COUNTED),
    ("exact_padic", "module_hnf", TIMED),
    ("exact_padic", "module_intersect", TIMED),
    ("exact_padic", "smith_local", TIMED),
    ("bt_tree", "canonical_vertex", TIMED),
    ("bt_tree", "neighbors", TIMED),
    ("bt_tree", "distance", TIMED),
    ("bt_tree", "step_toward_end", TIMED),
    ("bt_tree", "ball", TIMED),
    ("bt_tree", "export_dot", TIMED),
    ("local_orders", "order_closure", TIMED),
    ("local_orders", "contains_shifted", TIMED),
    ("local_orders", "decompose_shifted_eichler", TIMED),
    ("local_orders", "three_maximal_orders", TIMED),
    ("branches", "mu_margin", TIMED),
    ("branches", "shape_margin", TIMED),
    ("branches", "classify_single", TIMED),
    ("branches", "intersect_shapes", TIMED),
    ("branches", "branch_of_order", TIMED),
    ("branches", "enumerate_branch", TIMED),
    ("spinor_local", "spinor_image", TIMED),
    ("quadforms", "class_group", TIMED),
    ("quadforms", "form_cycle", TIMED),
    ("quadforms", "compose", TIMED),
    ("quadforms", "class_rep", TIMED),
    ("quadforms", "prime_form", TIMED),
    ("global_classfield", "spinor_class_field", TIMED),
    ("global_classfield", "narrow_ray_class_group", TIMED),
    ("global_classfield", "rep_field_comm_quadratic", TIMED),
    ("global_classfield", "rep_field_rank3", TIMED),
    ("global_classfield", "rep_field_rank4", TIMED),
    ("global_classfield", "is_local_square", TIMED),
    ("global_classfield", "is_unramified_or_split", TIMED),
    ("cli", "build_parser", TIMED),
    ("cli", "_read_request", TIMED),
    ("cli", "_write_response", TIMED),
)
HANDLER = "cli.handler"  # every cmd_* function in cli._HANDLERS, as one span

# Derived counts: (metric, unit).
EXTRAS = (
    ("local_orders.order_closure.rounds", "count"),
    ("bt_tree.ball.vertices", "count"),
    ("branches.enumerate_branch.hit_ratio", "ratio"),
    ("quadforms.class_group.order_sum", "count"),
)


def span_names() -> list[tuple[str, str]]:
    return [(f"{mod}.{attr}", mode) for mod, attr, mode in SPANS] + [(HANDLER, TIMED)]


def metric_units() -> dict[str, str]:
    """Every metric a tracer reports, with its unit."""
    out = {}
    for name, mode in span_names():
        out[f"{name}.calls"] = "count"
        if mode == TIMED:
            out[f"{name}.self_s"] = "s"
    out.update(EXTRAS)
    return out


class _Frame:
    __slots__ = ("child_s", "hnf", "scanned")

    def __init__(self):
        self.child_s = 0.0
        self.hnf = 0  # direct module_hnf children (closure rounds + 1)
        self.scanned = 0  # ball vertices returned to this frame


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # rounds, vertices, hits, scanned, order_sum
        self.absent: list[str] = []
        self.unbound: list[str] = []
        self._stack: list[_Frame] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name: str, fn):
        calls = self.calls

        @wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name: str, fn, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @wraps(fn)
        def timed(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame.child_s
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_s += elapsed
                if after is not None:
                    after(frame, parent, result)

        return timed

    def _after_hooks(self) -> dict:
        extra = self.extra

        def hnf(frame, parent, result):
            if parent is not None:
                parent.hnf += 1

        def closure(frame, parent, result):
            extra["rounds"] += frame.hnf - 1

        def ball(frame, parent, result):
            if result is not None:
                extra["vertices"] += len(result)
                if parent is not None:
                    parent.scanned += len(result)

        def enumerate_branch(frame, parent, result):
            if result is not None:
                extra["hits"] += len(result)
                extra["scanned"] += frame.scanned

        def class_group(frame, parent, result):
            if result is not None:
                extra["order_sum"] += result.order

        return {
            "exact_padic.module_hnf": hnf,
            "local_orders.order_closure": closure,
            "bt_tree.ball": ball,
            "branches.enumerate_branch": enumerate_branch,
            "quadforms.class_group": class_group,
        }

    # -- installation ---------------------------------------------------------

    @staticmethod
    def _modules() -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "qlat" or n.startswith("qlat."))]

    def _rebind(self, fn, wrapper, owner=None, attr=None) -> None:
        """Put `wrapper` wherever the package holds `fn`."""
        if owner is not None:
            self._undo.append((setattr, owner, attr, fn))
            setattr(owner, attr, wrapper)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((setattr, mod, key, fn))
                    setattr(mod, key, wrapper)
        cli = sys.modules.get("qlat.cli")
        handlers = getattr(cli, "_HANDLERS", {})
        for key, value in list(handlers.items()):
            if value is fn:
                self._undo.append((dict.__setitem__, handlers, key, fn))
                handlers[key] = wrapper

    def install(self) -> None:
        """Wrap every span; qlat.cli must already be imported."""
        hooks = self._after_hooks()
        originals = []
        for mod_name, attr, mode in SPANS:
            name = f"{mod_name}.{attr}"
            mod = sys.modules.get(f"qlat.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else None
            if owner_name:
                fn = vars(owner).get(method) if owner is not None else None
            else:
                fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            if mode == COUNTED:
                wrapper = self._counted(name, fn)
            else:
                wrapper = self._timed(name, fn, hooks.get(name))
            self._rebind(fn, wrapper, owner, method if owner_name else None)
            originals.append((name, fn))
        handlers = getattr(sys.modules.get("qlat.cli"), "_HANDLERS", None)
        if not handlers:
            self.absent.append(HANDLER)
        else:
            for fn in set(handlers.values()):
                self._rebind(fn, self._timed(HANDLER, fn))
                originals.append((HANDLER, fn))
        self.unbound = self._still_bound(originals)

    def _still_bound(self, originals) -> list[str]:
        """Names of originals some package namespace or table still holds."""
        left = {id(fn): name for name, fn in originals}
        found = set()
        for mod in self._modules():
            for value in vars(mod).values():
                pool = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (list, tuple)) else (value,))
                for v in pool:
                    if id(v) in left:
                        found.add(left[id(v)])
                if isinstance(value, type):
                    for v in vars(value).values():
                        if id(v) in left:
                            found.add(left[id(v)])
        return sorted(found)

    def uninstall(self) -> None:
        for op, target, key, fn in reversed(self._undo):
            op(target, key, fn)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, mode in span_names():
            out[f"{name}.calls"] = self.calls[name]
            if mode == TIMED:
                out[f"{name}.self_s"] = self.self_s[name]
        out["local_orders.order_closure.rounds"] = self.extra["rounds"]
        out["bt_tree.ball.vertices"] = self.extra["vertices"]
        scanned = self.extra["scanned"]
        out["branches.enumerate_branch.hit_ratio"] = (
            self.extra["hits"] / scanned if scanned else 0.0
        )
        out["quadforms.class_group.order_sum"] = self.extra["order_sum"]
        return out
