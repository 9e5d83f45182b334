"""Spans and counts around the public functions of each abelslab module.

The wrappers live here, outside the package: each traced function is
replaced on its own module and on every abelslab module that imported
it by name.  A span records (name, start, end, parent); spans are kept
in memory and written out when the run ends.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, function, span name, count name, count of one call)
FUNCTIONS = (
    ("kernels", "mul_batch_left", "kernels.mul_batch", "kernels.mul_batch.rows",
     lambda a, k, r: len(_arg(a, k, 2, "Bs"))),
    ("kernels", "mul_batch_right", "kernels.mul_batch", "kernels.mul_batch.rows",
     lambda a, k, r: len(_arg(a, k, 1, "As"))),
    ("kernels", "group_closure", "kernels.group_closure", "kernels.group_closure.elements",
     lambda a, k, r: len(r[1])),
    ("kernels", "center_mask", "kernels.center_mask", "kernels.center_mask.rows",
     lambda a, k, r: len(_arg(a, k, 1, "elems"))),
    ("kernels", "coset_labels", "kernels.coset_labels", None, None),
    ("kernels", "closure_python", "kernels.closure_python", "kernels.closure_python.elements",
     lambda a, k, r: len(r[1])),
    ("presentation", "todd_coxeter", "presentation.todd_coxeter", "presentation.todd_coxeter.cosets",
     lambda a, k, r: r.count),
    ("presentation", "von_dyck_check", "presentation.von_dyck_check", None, None),
    ("presentation", "tietze_reduce", "presentation.tietze_reduce", "presentation.tietze_reduce.generators_in",
     lambda a, k, r: len(_arg(a, k, 0, "pres").generators)),
    ("snf", "smith_invariant_factors", "snf.smith_invariant_factors", "snf.smith_invariant_factors.calls",
     lambda a, k, r: 1),
    ("snf", "rational_rank", "snf.rational_rank", "snf.rational_rank.calls", lambda a, k, r: 1),
    ("complexes", "coset_complex", "complexes.coset_complex", None, None),
    ("complexes", "homology_h1", "complexes.homology_h1", None, None),
    ("complexes", "betti_numbers", "complexes.betti_numbers", None, None),
    ("complexes", "fundamental_group", "complexes.fundamental_group", None, None),
    ("complexes", "is_simply_connected", "complexes.is_simply_connected", None, None),
    ("chevalley", "check_steinberg", "chevalley.check_steinberg", None, None),
    ("chevalley", "check_weyl_conjugation", "chevalley.check_weyl_conjugation", None, None),
    ("chevalley", "check_elementary_relations", "chevalley.check_elementary_relations", None, None),
    ("chevalley", "borel_isomorphism_check", "chevalley.borel_isomorphism_check", None, None),
    ("chevalley", "check_form_invariance", "chevalley.check_form_invariance", None, None),
)

# (module, class, method, span name); spans as above, no count
METHODS = (
    ("abels", "SubgroupSpec", "elements_encoded", "abels.elements_encoded"),
    ("reports", "Report", "to_json", "reports.to_json"),
)

# (module, class, method, count name); counted only, too frequent for spans.
# Matrix.__matmul__ goes through Matrix.mul, so `@` is counted there.
COUNTED = (
    ("matrices", "Matrix", "mul", "matrices.Matrix.mul.calls"),
    ("matrices", "Matrix", "inverse", "matrices.Matrix.inverse.calls"),
)

# report check-id prefixes whose `elapsed` sums give abels.check.*_s
ABELS_CHECKS = (
    ("closure:", "abels.check.closure_s"),
    ("center", "abels.check.center_s"),
    ("retraction", "abels.check.retraction_s"),
    ("factorization:", "abels.check.factorization_s"),
    ("normality:", "abels.check.normality_s"),
    ("fiber-product", "abels.check.fiber_product_s"),
)


def metric_names():
    """Every per-layer metric, in a stable order."""
    names = []
    for *_, span, count, _ in FUNCTIONS:
        names += [f"{span}_s"] + ([count] if count else [])
    names += [f"{span}_s" for *_, span in METHODS]
    names += [count for *_, count in COUNTED]
    names += [name for _, name in ABELS_CHECKS]
    return list(dict.fromkeys(names))


class Tracer:
    """Spans and counts of traced rounds; installed only during a round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.rounds = []  # the spans of every finished round
        self.replaced = []  # (owner, attribute, original) while installed

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span named `name` and return its result."""
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _spanned(self, fn, name, count_name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count_name:
                self.counts[count_name] += count(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, count_name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, value):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions on every abelslab module holding them."""
        import abelslab.cli  # noqa: F401  (loads every module)

        modules = [m for k, m in sys.modules.items() if k.startswith("abelslab")]
        for mod, fname, span, count_name, count in FUNCTIONS:
            original = getattr(sys.modules[f"abelslab.{mod}"], fname)
            wrapper = self._spanned(original, span, count_name, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, wrapper)
        for mod, cls, meth, span in METHODS:
            klass = getattr(sys.modules[f"abelslab.{mod}"], cls)
            self._replace(klass, meth, self._spanned(getattr(klass, meth), span, None, None))
        for mod, cls, meth, count_name in COUNTED:
            klass = getattr(sys.modules[f"abelslab.{mod}"], cls)
            self._replace(klass, meth, self._counted(getattr(klass, meth), count_name))

    def uninstall(self):
        """Put back every original the wrappers replaced."""
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []

    def begin_round(self):
        self.spans, self.stack = [], []
        self.counts.clear()
        self.install()

    def end_round(self, reports):
        """Uninstall and return the round's metrics; keep its spans."""
        self.uninstall()
        self.rounds.append(self.spans)
        return self.metrics(reports)

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[f"{name}_s"] += end - start - child
        return out

    def metrics(self, reports):
        """Per-layer metrics; `reports` are the round's report dicts."""
        values = dict.fromkeys(metric_names(), 0)
        values.update(self.self_times())
        values.update(self.counts)
        for report in reports:
            if report.get("suite") != "abels":
                continue
            for check in report["checks"]:
                for prefix, name in ABELS_CHECKS:
                    if check["id"].startswith(prefix):
                        values[name] += check["elapsed"]
        return {k: values[k] for k in metric_names()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"rounds": self.rounds}, fh)
