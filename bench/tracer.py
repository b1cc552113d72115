"""Per-layer call counts and self time, measured from outside the library.

The tracer replaces public functions of the ``closehecke`` modules with
wrappers that count calls and time them.  Hot leaves (ring, coefficient and
field-element arithmetic) run millions of times, so no span is stored per
call: each wrapped name keeps a call count and a summed self time.  Self time
is a call's duration minus the durations of the wrapped calls made inside
it.  The bookkeeping of a child wrapper outside its own clock readings is
charged to the parent, so traced self times are upper bounds.

A name missing at the commit being measured (renamed or deleted by a
refactor) is recorded as absent, and every metric that needs it is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# (module, class, method, traced name)
WRAPS = [
    ("rings", "BaseRing", "mul", "rings.base_mul"),
    ("rings", "BaseRing", "inv", "rings.base_inv"),
    ("rings", "BaseRing", "__eq__", "rings.base_eq"),
    ("rings", "ExtensionRing", "mul", "rings.ext_mul"),
    ("rings", "ExtensionRing", "inv", "rings.ext_inv"),
    ("rings", "ExtensionRing", "__eq__", "rings.ext_eq"),
    ("coeffs", "CoeffField", "add", "coeffs.add"),
    ("coeffs", "CoeffField", "sub", "coeffs.sub"),
    ("coeffs", "CoeffField", "neg", "coeffs.neg"),
    ("coeffs", "CoeffField", "mul", "coeffs.mul"),
    ("coeffs", "CoeffField", "pow", "coeffs.pow"),
    ("coeffs", "CoeffField", "inv", "coeffs.inv"),
    ("matrices", "FieldElement", "__add__", "matrices.fe_add"),
    ("matrices", "FieldElement", "__sub__", "matrices.fe_sub"),
    ("matrices", "FieldElement", "__mul__", "matrices.fe_mul"),
    ("matrices", "FieldElement", "inverse", "matrices.fe_inverse"),
    ("matrices", "GroupMatrix", "__mul__", "matrices.gm_mul"),
    ("matrices", "GroupMatrix", "inverse", "matrices.gm_inverse"),
    ("cartan", "GroupContext", "smith_cartan", "cartan.smith_cartan"),
    ("cartan", "GroupContext", "left_coset_key", "cartan.left_coset_key"),
    ("cartan", "GroupContext", "left_coset_reps", "cartan.left_coset_reps"),
    ("cartan", "GroupContext", "fingerprint", "cartan.fingerprint"),
    ("cartan", "GroupContext", "enumerate_labels", "cartan.enumerate_labels"),
    ("hecke", "HeckeAlgebra", "convolve", "hecke.convolve"),
    # the product cache sits in this private method; without it the cache
    # metrics are absent
    ("hecke", "HeckeAlgebra", "_basis_product", "hecke.basis_product"),
    ("hecke", "HeckeAlgebra", "sigma_label", "hecke.sigma_label"),
    ("hecke", "HeckeAlgebra", "brauer_restrict", "hecke.brauer_restrict"),
    ("transfer", "Tower", "__init__", "transfer.tower_init"),
    ("transfer", "Tower", "kaz", "transfer.kaz"),
]

CHECK = "transfer.check"


class Absent(Exception):
    """A traced name a metric needs does not exist at this commit."""


class Tracer:
    def __init__(self):
        self._calls = Counter()
        self._self_s = Counter()
        self._counts = Counter()         # counts taken at call boundaries
        self.absent = set()
        self._stack = []                 # frames: [name, time in wrapped children]

    # -- installation -------------------------------------------------------
    def install(self):
        import importlib
        for mod, cls, attr, name in WRAPS:
            module = importlib.import_module(f"closehecke.{mod}")
            self._wrap(getattr(module, cls, None), attr, name)
        # every public function of tate is wrapped, so tate.self_s follows
        # the module through refactors
        tate = importlib.import_module("closehecke.tate")
        for attr, fn in list(vars(tate).items()):
            if (inspect.isfunction(fn) and fn.__module__ == tate.__name__
                    and not attr.startswith("_")):
                self._wrap(tate, attr, f"tate.{attr}")
        cartan = importlib.import_module("closehecke.cartan")
        self._count_attempts(getattr(cartan, "GroupContext", None))

    def _wrap(self, owner, attr, name):
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            self.absent.add(name)
            return
        calls, self_s, counts, stack = self._calls, self._self_s, self._counts, self._stack
        clock = time.perf_counter
        calls[name] += 0
        on_return = None
        if name == "cartan.left_coset_reps":
            def on_return(result):
                counts["cartan.cosets_found"] += len(result)
        elif name == "cartan.left_coset_key":
            def on_return(result):
                if stack and stack[-1][0] == "cartan.left_coset_reps":
                    counts["cartan.left_coset_reps.keys"] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, wrapper)

    def _count_attempts(self, context_cls):
        """Counts ``with_retry`` calls by caller, and the attempts they make:
        a computation not served from a cache goes through ``with_retry``."""
        fn = vars(context_cls).get("with_retry") if context_cls is not None else None
        if not callable(fn):
            self.absent.add("cartan.with_retry")
            return
        calls, counts, stack = self._calls, self._counts, self._stack
        calls["cartan.with_retry"] += 0

        @functools.wraps(fn)
        def with_retry(ctx, run, *args, **kwargs):
            calls["cartan.with_retry"] += 1
            if stack:
                counts[f"cartan.with_retry.under.{stack[-1][0]}"] += 1

            def attempt(*a, **k):
                counts["cartan.with_retry.attempts"] += 1
                return run(*a, **k)

            return fn(ctx, attempt, *args, **kwargs)

        context_cls.with_retry = with_retry

    @contextmanager
    def span(self, name):
        """A frame opened by the benchmark itself, e.g. around a check."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._calls[name] += 1
            self._self_s[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    # -- reading ------------------------------------------------------------
    def _need(self, name):
        if name in self.absent or name not in self._calls:
            raise Absent(name)

    def calls(self, name):
        self._need(name)
        return self._calls[name]

    def self_s(self, name):
        self._need(name)
        return self._self_s[name]

    def self_sum(self, prefix):
        names = [n for n in self._calls if n.startswith(prefix)]
        if not names:
            raise Absent(prefix)
        return sum(self._self_s[n] for n in names)

    def count(self, key, requires):
        for name in requires:
            self._need(name)
        return self._counts[key]


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(misses, lookups):
    return 1.0 - misses / lookups if lookups else 0.0


def _retry_under(caller):
    return lambda s: s.count(f"cartan.with_retry.under.{caller}",
                             ("cartan.with_retry", caller))


_fingerprint_misses = _retry_under("cartan.fingerprint")
_products_computed = _retry_under("hecke.basis_product")


def _lookups(s):
    return s.calls("hecke.basis_product")


def _keys_under_reps(s):
    return s.count("cartan.left_coset_reps.keys",
                   ("cartan.left_coset_reps", "cartan.left_coset_key"))


def _cosets(s):
    return s.count("cartan.cosets_found", ("cartan.left_coset_reps",))


def _c(name):
    return lambda s: s.calls(name)


def _t(name):
    return lambda s: s.self_s(name)


# (metric, unit, how to read it from a tracer).  Ratios are
# reported next to their base counts; a ratio over a zero base reads 0.
LAYER_METRICS = [
    ("rings.base_mul.calls", "count", _c("rings.base_mul")),
    ("rings.base_mul.self_s", "s", _t("rings.base_mul")),
    ("rings.base_inv.calls", "count", _c("rings.base_inv")),
    ("rings.base_inv.self_s", "s", _t("rings.base_inv")),
    ("rings.ext_mul.calls", "count", _c("rings.ext_mul")),
    ("rings.ext_mul.self_s", "s", _t("rings.ext_mul")),
    ("rings.ext_inv.calls", "count", _c("rings.ext_inv")),
    ("rings.ext_inv.self_s", "s", _t("rings.ext_inv")),
    ("rings.eq.calls", "count",
     lambda s: s.calls("rings.base_eq") + s.calls("rings.ext_eq")),
    ("coeffs.mul.calls", "count", _c("coeffs.mul")),
    ("coeffs.add.calls", "count", _c("coeffs.add")),
    ("coeffs.self_s", "s", lambda s: s.self_sum("coeffs.")),
    ("matrices.fe_mul.calls", "count", _c("matrices.fe_mul")),
    ("matrices.fe_add.calls", "count", _c("matrices.fe_add")),
    ("matrices.fe_inverse.calls", "count", _c("matrices.fe_inverse")),
    ("matrices.gm_mul.calls", "count", _c("matrices.gm_mul")),
    ("matrices.gm_inverse.calls", "count", _c("matrices.gm_inverse")),
    ("matrices.self_s", "s", lambda s: s.self_sum("matrices.")),
    ("cartan.left_coset_key.calls", "count", _c("cartan.left_coset_key")),
    ("cartan.left_coset_key.self_s", "s", _t("cartan.left_coset_key")),
    ("cartan.left_coset_reps.calls", "count", _c("cartan.left_coset_reps")),
    ("cartan.left_coset_reps.keys", "count", _keys_under_reps),
    ("cartan.cosets_found", "count", _cosets),
    ("cartan.coset_yield", "ratio",
     lambda s: _ratio(_cosets(s), _keys_under_reps(s))),
    ("cartan.fingerprint.calls", "count", _c("cartan.fingerprint")),
    ("cartan.fingerprint.misses", "count", _fingerprint_misses),
    ("cartan.fingerprint.hit_ratio", "ratio",
     lambda s: _hit_ratio(_fingerprint_misses(s), s.calls("cartan.fingerprint"))),
    ("cartan.smith_cartan.calls", "count", _c("cartan.smith_cartan")),
    ("cartan.smith_cartan.self_s", "s", _t("cartan.smith_cartan")),
    ("cartan.enumerate_labels.calls", "count", _c("cartan.enumerate_labels")),
    ("cartan.enumerate_labels.self_s", "s", _t("cartan.enumerate_labels")),
    ("cartan.retry_escalations", "count",
     lambda s: s.count("cartan.with_retry.attempts", ("cartan.with_retry",))
     - s.calls("cartan.with_retry")),
    ("hecke.convolve.calls", "count", _c("hecke.convolve")),
    ("hecke.convolve.self_s", "s", _t("hecke.convolve")),
    ("hecke.product_cache.lookups", "count", _lookups),
    ("hecke.products_computed", "count", _products_computed),
    ("hecke.product_cache.hit_ratio", "ratio",
     lambda s: _hit_ratio(_products_computed(s), _lookups(s))),
    ("hecke.sigma_label.calls", "count", _c("hecke.sigma_label")),
    ("hecke.sigma_label.self_s", "s", _t("hecke.sigma_label")),
    ("hecke.brauer_restrict.calls", "count", _c("hecke.brauer_restrict")),
    ("hecke.brauer_restrict.self_s", "s", _t("hecke.brauer_restrict")),
    ("transfer.tower_init.self_s", "s", _t("transfer.tower_init")),
    ("transfer.kaz.calls", "count", _c("transfer.kaz")),
    ("transfer.kaz.self_s", "s", _t("transfer.kaz")),
    ("transfer.check.self_s", "s", _t(CHECK)),
    ("tate.tate_cohomology.calls", "count", _c("tate.tate_cohomology")),
    ("tate.mat_mul.calls", "count", _c("tate.mat_mul")),
    ("tate.rref.calls", "count", _c("tate.rref")),
    ("tate.composition_factors.calls", "count", _c("tate.composition_factors")),
    ("tate.self_s", "s", lambda s: s.self_sum("tate.")),
]


def layer_metrics(tracer):
    """{metric: {"value", "unit"}} for one traced worker; a metric whose
    traced names are gone carries ``"absent": true`` and value 0."""
    out = {}
    for name, unit, read in LAYER_METRICS:
        try:
            out[name] = {"value": read(tracer), "unit": unit}
        except Absent:
            out[name] = {"value": 0, "unit": unit, "absent": True}
    return out
