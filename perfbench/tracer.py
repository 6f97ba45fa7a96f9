"""Per-layer tracing of banklaine, installed from outside the package.

The tracer wraps each layer's entry points (module functions and class
methods) at run time and leaves ``src/`` untouched.  A function imported by
name into another module is patched in every module that holds it, so
``surgery.eval_model_turns`` and ``diffeo.real_log_gap`` are traced too.

Spans nest: a span's self time is its duration minus the time covered by the
spans it caused.  Millions of spans open in one workload, so they are
aggregated as they close, into call counts per (parent, name) edge and self
time per name, instead of being kept one by one.

``LAYER_METRICS`` is the single list of per-layer metrics: each entry names
the end-to-end metric it should move and the workloads that exercise it.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter
from types import FunctionType

DRIVER = "surgery.quad.driver"
CLASSIFY = "surgery.quad.classify"
STRADDLE = "surgery.quad.straddle"
SEAM_FN = "surgery.quad.seam_fn"
MU = "surgery.quad.mu"
LOCATE = "surgery.strip.locate"
STRIP_PAIR = "surgery.strip.pair"
PSICACHE = "surgery.psicache"
NODE_SOLVE = "surgery.psicache.node_solve"
SEAMS = "surgery.seams"
ENTRY = "sequences.entry"
PHI_VALUE = "diffeo.phi_value"
BISECT = "diffeo.bisect_newton"
F_EVAL = "diffeo.phi_value.f_eval"
EVAL_TURNS = "specfun.eval_model_turns"
POLY_EVAL = "specfun.poly_eval"
POLY_MP = "specfun.poly_mp"
REAL_LOG_GAP = "specfun.real_log_gap"
PAIR_NEW = "specfun.pair_index.new"
SCALED_OPS = "scaledcx.ops"


class Tracer:
    """Span stack plus aggregated counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.edges: dict[tuple, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # open spans: [name, start, child seconds]
        self._undo: list[tuple] = []
        self._wrapping_seam_fns = False

    # -- spans and counters ------------------------------------------------
    def top(self):
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self.stack.pop()
        elapsed = end - start
        parent = self.stack[-1] if self.stack else None
        self.edges[(parent[0] if parent else None, name)] += 1
        self.self_s[name] += elapsed - child
        if parent is not None:
            parent[2] += elapsed

    def bump(self, name: str) -> None:
        self.edges[(self.top(), name)] += 1

    def span(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def counter(self, name: str, fn):
        bump = self.bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------
    # A layer missing from the traced version is left alone; its metrics read 0.

    def _patch_function(self, modules, module, attr, make) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            return
        new = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, new)

    def _patch_method(self, cls, attr, make) -> None:
        orig = vars(cls).get(attr) if cls is not None else None
        if orig is None:
            return
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def install(self) -> "Tracer":
        import banklaine

        modules = [banklaine] + [
            importlib.import_module(f"banklaine.{info.name}")
            for info in pkgutil.iter_modules(banklaine.__path__)
        ]
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        specfun, diffeo, surgery = (mods.get(name) for name in ("specfun", "diffeo", "surgery"))

        def cls(module, name):
            return getattr(module, name, None)

        def span_as(name):
            return lambda fn: self.span(name, fn)

        def count_as(name):
            return lambda fn: self.counter(name, fn)

        self._patch_function(modules, surgery, "dilatation_integral", self._driver)
        self._patch_function(modules, specfun, "eval_model_turns", span_as(EVAL_TURNS))
        self._patch_function(modules, specfun, "_poly_eval", span_as(POLY_EVAL))
        self._patch_function(modules, specfun, "_poly_logsum_mp", span_as(POLY_MP))
        self._patch_function(modules, specfun, "real_log_gap", span_as(REAL_LOG_GAP))
        self._patch_function(modules, diffeo, "_bisect_newton", count_as(BISECT))

        self._patch_method(cls(specfun, "PairIndex"), "__post_init__", count_as(PAIR_NEW))
        self._patch_method(cls(diffeo, "PhiSolver"), "value", span_as(PHI_VALUE))
        self._patch_method(cls(diffeo, "PhiSolver"), "_f_src", count_as(F_EVAL))
        self._patch_method(cls(mods.get("sequences"), "SlopeSequence"), "entry", span_as(ENTRY))
        self._patch_method(cls(surgery, "_StripSystem"), "locate", span_as(LOCATE))
        self._patch_method(cls(surgery, "_StripSystem"), "pair", count_as(STRIP_PAIR))
        self._patch_method(cls(surgery, "_PsiCache"), "eval", span_as(PSICACHE))
        self._patch_method(cls(surgery, "_PsiCache"), "_at", self._node_lookup)

        scaled = cls(mods.get("scaledcx"), "ScaledComplex")
        for attr, value in list(vars(scaled).items()) if scaled else ():
            if not attr.startswith("__") and isinstance(value, (FunctionType, classmethod)):
                self._patch_method(scaled, attr, span_as(SCALED_OPS))

        # every engine class that implements a quadrature or seam hook
        for engine in list(vars(surgery).values()) if surgery else ():
            if not isinstance(engine, type) or engine.__module__ != surgery.__name__:
                continue
            self._patch_method(engine, "cell_state", self._classify)
            self._patch_method(engine, "mu_quad", span_as(MU))
            self._patch_method(engine, "straddle_tester", self._straddle_tester)
            self._patch_method(engine, "seam_functions_upto", self._seam_functions)
            self._patch_method(engine, "seam_residuals", span_as(SEAMS))
        return self

    # -- quadrature-specific wrappers -------------------------------------------
    # Engines without a straddle tester are tested by a closure local to
    # dilatation_integral that only calls the engine's seam functions and gates.
    # That closure cannot be wrapped from outside, so its span opens at the
    # first seam-function or gate call of a cell and closes when
    # dilatation_integral classifies the same cell, which it does right after
    # the test.

    def _driver(self, fn):
        @functools.wraps(fn)
        def dilatation_integral(*args, **kwargs):
            self.enter(DRIVER)
            try:
                return fn(*args, **kwargs)
            finally:
                while self.top() != DRIVER:
                    self.exit()  # a straddle span left open by an exception
                self.exit()

        return dilatation_integral

    def _open_straddle(self) -> None:
        if self.top() == DRIVER:
            self.enter(STRADDLE)

    def _classify(self, fn):
        traced = self.span(CLASSIFY, fn)

        @functools.wraps(fn)
        def cell_state(*args, **kwargs):
            if self.top() == STRADDLE:
                self.exit()
            return traced(*args, **kwargs)

        return cell_state

    def _straddle_tester(self, fn):
        @functools.wraps(fn)
        def straddle_tester(*args, **kwargs):
            return self.span(STRADDLE, fn(*args, **kwargs))

        return straddle_tester

    def _seam_functions(self, fn):
        @functools.wraps(fn)
        def seam_functions_upto(*args, **kwargs):
            if self._wrapping_seam_fns:  # an engine delegating to its base engine
                return fn(*args, **kwargs)
            self._wrapping_seam_fns = True
            try:
                fns = fn(*args, **kwargs)
            finally:
                self._wrapping_seam_fns = False
            return [(self._seam_fn(f), None if gate is None else self._gate(gate), label)
                    for f, gate, label in fns]

        return seam_functions_upto

    def _seam_fn(self, f):
        traced = self.span(SEAM_FN, f)

        def seam_fn(z):
            self._open_straddle()
            return traced(z)

        return seam_fn

    def _gate(self, gate):
        def gate_fn(z):
            self._open_straddle()
            return gate(z)

        return gate_fn

    def _node_lookup(self, fn):
        @functools.wraps(fn)
        def _at(cache, i):
            nodes = getattr(cache, "_node", None)
            if nodes is not None and i not in nodes:
                self.bump(NODE_SOLVE)
            return fn(cache, i)

        return _at

    # -- results ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counts and self times so far, in a JSON-ready form."""
        return {
            "edges": sorted([parent or "", name, n] for (parent, name), n in self.edges.items()),
            "self_s": dict(sorted(self.self_s.items())),
        }


# ---------------------------------------------------------------------------
# per-layer metrics computed from a snapshot
# ---------------------------------------------------------------------------

def _calls(snap: dict, name: str, parent: str | None = None) -> int:
    return sum(c for p, n, c in snap["edges"] if n == name and (parent is None or p == parent))


def _self(snap: dict, name: str) -> float:
    return snap["self_s"].get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


QUAD = ("spiral-quad", "strips-quad")

# (name, unit, better, end-to-end metric it should move, workloads, value)
LAYER_METRICS = [
    ("surgery.quad.cells", "count", "lower", "run_s", QUAD,
     lambda s: _calls(s, CLASSIFY, DRIVER)),
    ("surgery.quad.classify.self_s", "s", "lower", "run_s", QUAD,
     lambda s: _self(s, CLASSIFY)),
    ("surgery.quad.straddle.calls", "count", "lower", "run_s", QUAD,
     lambda s: _calls(s, STRADDLE)),
    ("surgery.quad.straddle.self_s", "s", "lower", "run_s", QUAD,
     lambda s: _self(s, STRADDLE)),
    ("surgery.quad.seam_fn_evals", "count", "lower", "run_s", ("spiral-quad",),
     lambda s: _calls(s, SEAM_FN)),
    ("surgery.quad.mu.calls", "count", "lower", "run_s", QUAD,
     lambda s: _calls(s, MU, DRIVER)),
    ("surgery.quad.mu.self_s", "s", "lower", "run_s", QUAD,
     lambda s: _self(s, MU)),
    ("surgery.quad.mu_ratio", "ratio", "lower", "run_s", QUAD,
     lambda s: _ratio(_calls(s, MU, DRIVER), _calls(s, CLASSIFY, DRIVER))),
    ("surgery.quad.driver.self_s", "s", "lower", "run_s", QUAD,
     lambda s: _self(s, DRIVER)),
    ("surgery.strip.locate.calls", "count", "lower", "run_s", ("strips-quad",),
     lambda s: _calls(s, LOCATE)),
    ("surgery.strip.locate.self_s", "s", "lower", "run_s", ("strips-quad",),
     lambda s: _self(s, LOCATE)),
    ("surgery.strip.pair.calls", "count", "lower", "run_s", ("strips-quad",),
     lambda s: _calls(s, STRIP_PAIR)),
    ("surgery.psicache.lookups", "count", "lower", "run_s", ("strips-quad",),
     lambda s: _calls(s, PSICACHE)),
    ("surgery.psicache.node_solves", "count", "lower", "run_s setup_s", ("strips-quad",),
     lambda s: _calls(s, NODE_SOLVE)),
    ("surgery.psicache.solve_ratio", "ratio", "lower", "run_s setup_s", ("strips-quad",),
     lambda s: _ratio(_calls(s, NODE_SOLVE), _calls(s, PSICACHE))),
    ("surgery.psicache.self_s", "s", "lower", "run_s", ("strips-quad",),
     lambda s: _self(s, PSICACHE)),
    ("surgery.seams.self_s", "s", "lower", "run_s", ("power-seams",),
     lambda s: _self(s, SEAMS)),
    ("sequences.entry.calls", "count", "lower", "run_s", ("strips-quad",),
     lambda s: _calls(s, ENTRY)),
    ("sequences.entry.self_s", "s", "lower", "run_s", ("strips-quad",),
     lambda s: _self(s, ENTRY)),
    ("diffeo.phi_value.calls", "count", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _calls(s, PHI_VALUE)),
    ("diffeo.phi_value.self_s", "s", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _self(s, PHI_VALUE)),
    ("diffeo.phi_value.cold", "count", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _calls(s, BISECT, PHI_VALUE)),
    ("diffeo.phi_value.f_evals_per_call", "1/call", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _ratio(_calls(s, F_EVAL), _calls(s, PHI_VALUE))),
    ("specfun.eval_model_turns.calls", "count", "lower", "run_s", ("power-seams",),
     lambda s: _calls(s, EVAL_TURNS)),
    ("specfun.eval_model_turns.self_s", "s", "lower", "run_s", ("power-seams",),
     lambda s: _self(s, EVAL_TURNS)),
    ("specfun.poly_eval.calls", "count", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _calls(s, POLY_EVAL)),
    ("specfun.poly_eval.self_s", "s", "lower", "run_s", ("power-seams", "strips-quad"),
     lambda s: _self(s, POLY_EVAL)),
    ("specfun.poly_mp.calls", "count", "lower", "run_s", ("power-seams",),
     lambda s: _calls(s, POLY_MP)),
    ("specfun.poly_mp.self_s", "s", "lower", "run_s", ("power-seams",),
     lambda s: _self(s, POLY_MP)),
    ("specfun.poly_mp.ratio", "ratio", "lower", "run_s", ("power-seams",),
     lambda s: _ratio(_calls(s, POLY_MP), _calls(s, POLY_EVAL))),
    ("specfun.real_log_gap.calls", "count", "lower", "run_s", ("power-seams",),
     lambda s: _calls(s, REAL_LOG_GAP)),
    ("specfun.real_log_gap.self_s", "s", "lower", "run_s", ("power-seams",),
     lambda s: _self(s, REAL_LOG_GAP)),
    ("specfun.pair_index.new", "count", "lower", "run_s", ("strips-quad", "power-seams"),
     lambda s: _calls(s, PAIR_NEW)),
    ("scaledcx.ops.calls", "count", "lower", "run_s", ("strips-quad", "power-seams"),
     lambda s: _calls(s, SCALED_OPS)),
    ("scaledcx.ops.self_s", "s", "lower", "run_s", ("strips-quad", "power-seams"),
     lambda s: _self(s, SCALED_OPS)),
]

# computed by the harness from a traced and an untraced repetition
OVERHEAD = ("trace.overhead_frac", "ratio", "lower", "none", ("spiral-quad", "strips-quad", "power-seams"))


def layer_metrics(snap: dict) -> dict:
    """{name: (value, unit)} of every entry of LAYER_METRICS."""
    return {name: (value(snap), unit) for name, unit, _better, _moves, _on, value in LAYER_METRICS}
