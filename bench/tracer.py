"""Spans and counters around the public calls of each tpflag layer.

The tracer is installed from outside the package: it replaces each
traced function or method with a wrapper in every ``tpflag.*`` namespace
and class that binds it, because ``flag`` and ``cli`` import names such
as ``is_g_positive`` directly and ``theta`` binds ``float_det``.

Two kinds of wrapper:

* a *span* records (name, start, end, parent, item) for a layer entry
  point.  Spans are kept in memory and written out by :meth:`Tracer.dump`.
* a *counter* is for the innermost per-minor calls (thousands per item):
  it adds one call and the call's duration to a running total instead of
  recording a span.  Counters must not call span functions.

A span's self time is its duration minus its child spans and minus the
busy time of the outermost counters that ran directly inside it.  All
work runs on one thread, so no layer has a waiting time.
"""

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute or Class.attribute, span name)
SPAN_TARGETS = (
    ("exactmat", "gauss_decompose", "exactmat.gauss_decompose"),
    ("exactmat", "exterior_power", "exactmat.exterior_power"),
    ("exactmat", "RationalMatrix.inverse", "exactmat.inverse"),
    ("exactmat", "RationalMatrix.__matmul__", "exactmat.matmul"),
    ("weyl", "length", "weyl"),
    ("weyl", "longest_element", "weyl"),
    ("weyl", "reduced_word", "weyl"),
    ("weyl", "is_reduced", "weyl"),
    ("weyl", "concat_is_reduced", "weyl"),
    ("totpos", "is_g_positive", "totpos.is_g_positive"),
    ("totpos", "is_totally_positive_unitriangular", "totpos.is_tp_unitriangular"),
    ("totpos", "extract_params", "totpos.extract_params"),
    ("totpos", "evaluate_params", "totpos.evaluate_params"),
    ("totpos", "relevant_minor_pairs", "totpos.relevant_minor_pairs"),
    ("theta", "theta_inverse_numeric", "theta.solve"),
    ("theta", "ZSystem.__init__", "theta.zsystem"),
    ("theta", "theta_forward", "theta.forward"),
    ("theta", "torus_set_membership", "theta.torus_set_membership"),
    ("theta", "sample_torus_in_domain", "theta.sample_torus"),
    ("flag", "zeta_j", "flag.zeta_j"),
    ("flag", "perron_line_check", "flag.perron_line_check"),
    ("flag", "check_partition", "flag.check_partition"),
    ("flag", "eigen_flag", "flag.eigen_flag"),
    ("flag", "split_cell", "flag.split_cell"),
    ("cli", "main", "cli.main"),
)

# ``_det`` is the exact determinant kernel behind ``RationalMatrix.det``,
# ``minor`` and exact ``extract_params``; counting it counts every exact
# determinant once.
COUNTER_TARGETS = (
    ("exactmat", "RationalMatrix.minor", "exactmat.minor"),
    ("exactmat", "_det", "exactmat.det"),
    ("exactmat", "float_det", "exactmat.float_det"),
    ("theta", "ZSystem.z_values", "theta.zsystem_eval"),
    ("theta", "ZSystem.jacobian", "theta.zsystem_eval"),
    ("theta", "ZSystem.membership", "theta.membership"),
)

# Per-layer metrics of a traced run: (name, unit, better).  The cli.*
# start-up metrics and the trace.* overhead metrics are measured by
# run.py; the rest come from :meth:`Tracer.metrics`.
LAYER_METRICS = (
    ("exactmat.minor.calls", "count", "lower"),
    ("exactmat.minor.busy_s", "s", "lower"),
    ("exactmat.det.calls", "count", "lower"),
    ("exactmat.det.busy_s", "s", "lower"),
    ("exactmat.float_det.calls", "count", "lower"),
    ("exactmat.float_det.busy_s", "s", "lower"),
    ("exactmat.gauss_decompose.calls", "count", "lower"),
    ("exactmat.gauss_decompose.self_s", "s", "lower"),
    ("exactmat.exterior_power.calls", "count", "lower"),
    ("exactmat.exterior_power.self_s", "s", "lower"),
    ("exactmat.inverse.calls", "count", "lower"),
    ("exactmat.inverse.self_s", "s", "lower"),
    ("exactmat.matmul.calls", "count", "lower"),
    ("exactmat.matmul.self_s", "s", "lower"),
    ("weyl.calls", "count", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("totpos.is_g_positive.calls", "count", "lower"),
    ("totpos.is_g_positive.self_s", "s", "lower"),
    ("totpos.is_tp_unitriangular.calls", "count", "lower"),
    ("totpos.is_tp_unitriangular.self_s", "s", "lower"),
    ("totpos.extract_params.calls", "count", "lower"),
    ("totpos.extract_params.self_s", "s", "lower"),
    ("totpos.evaluate_params.calls", "count", "lower"),
    ("totpos.evaluate_params.self_s", "s", "lower"),
    ("totpos.relevant_minor_pairs.self_s", "s", "lower"),
    ("theta.solve.calls", "count", "lower"),
    ("theta.solve.self_s", "s", "lower"),
    ("theta.zsystem.calls", "count", "lower"),
    ("theta.zsystem.self_s", "s", "lower"),
    ("theta.zsystem_eval.calls", "count", "lower"),
    ("theta.zsystem_eval.busy_s", "s", "lower"),
    ("theta.membership.calls", "count", "lower"),
    ("theta.membership.busy_s", "s", "lower"),
    ("theta.membership.accept_ratio", "ratio", "higher"),
    ("theta.newton.iterations", "count", "lower"),
    ("theta.newton.converged_ratio", "ratio", "higher"),
    ("theta.forward.calls", "count", "lower"),
    ("theta.forward.self_s", "s", "lower"),
    ("theta.torus_set_membership.calls", "count", "lower"),
    ("theta.torus_set_membership.self_s", "s", "lower"),
    ("theta.sample_torus.calls", "count", "lower"),
    ("theta.sample_torus.self_s", "s", "lower"),
    ("flag.zeta_j.self_s", "s", "lower"),
    ("flag.perron_line_check.self_s", "s", "lower"),
    ("flag.check_partition.self_s", "s", "lower"),
    ("flag.eigen_flag.calls", "count", "lower"),
    ("flag.eigen_flag.self_s", "s", "lower"),
    ("flag.split_cell.calls", "count", "lower"),
    ("flag.split_cell.self_s", "s", "lower"),
    ("flag.is_g_positive_per_item", "count", "lower"),
    ("flag.eigen_flag_per_item", "count", "lower"),
    ("flag.exterior_power_per_item", "count", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Span record fields.
_NAME, _START, _END, _PARENT, _ITEM, _CHILD, _LEAF = range(7)


def _resolve(owner, path):
    """(object that holds the attribute, attribute name) for 'f' or 'C.f'."""
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans and counters inside regions once installed."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = {}      # name -> [calls, busy_s, accepted]
        self.newton = [0, 0, 0]  # iterations, converged starts, starts tried
        self._stack = []
        self._item = -1
        self._counter_depth = 0
        self._originals = {}    # id(original) -> (original, wrapper)
        self._bindings = []     # (owner, attribute, original) to restore

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target and rebind it in each tpflag namespace and
        class.  Raises if a target no longer exists."""
        modules = {name: importlib.import_module("tpflag." + name)
                   for name in {m for m, _, _ in SPAN_TARGETS + COUNTER_TARGETS}}
        for kind, targets in (("span", SPAN_TARGETS), ("counter", COUNTER_TARGETS)):
            for module, path, name in targets:
                owner, attr = _resolve(modules[module], path)
                original = vars(owner)[attr]
                wrapper = (self._span_wrapper(original, name) if kind == "span"
                           else self._counter_wrapper(original, name))
                self._originals[id(original)] = (original, wrapper)
        for owner in _namespaces():
            for attr, value in list(vars(owner).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attr, entry[1])
                    self._bindings.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def originals(self):
        return [original for original, _ in self._originals.values()]

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._item, 0.0, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        end = perf_counter()
        record = self.spans[self._stack.pop()]
        record[_END] = end
        if record[_PARENT] >= 0:
            self.spans[record[_PARENT]][_CHILD] += end - record[_START]

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if name == "theta.solve":
                tracer.newton[0] += sum(result.iterations)
                tracer.newton[1] += sum(1 for ok in result.converged if ok)
                tracer.newton[2] += result.starts_tried
            return result
        return span

    def _counter_wrapper(self, fn, name):
        tracer = self
        totals = self.counters.setdefault(name, [0, 0.0, 0])
        counts_accepted = name == "theta.membership"

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._counter_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                tracer._counter_depth -= 1
                totals[0] += 1
                totals[1] += busy
                if tracer._counter_depth == 0 and tracer._stack:
                    tracer.spans[tracer._stack[-1]][_LEAF] += busy
            if counts_accepted and result:
                totals[2] += 1
            return result
        return counter

    @contextlib.contextmanager
    def region(self, name, item=-1):
        """A root span (set-up or one benchmark item).  The wrappers
        record only inside a region, so input generation and output
        checks between items stay out of the trace."""
        self._item = item
        self.active = True
        self._open(name)
        try:
            yield
        finally:
            self._close()
            self.active = False
            self._item = -1

    # -- results ----------------------------------------------------------

    def metrics(self, items: int) -> dict:
        """Per-layer totals over everything recorded, as {name: value}.
        ``items`` is the number of benchmark items, for per-item ratios."""
        calls, self_s = {}, {}
        for record in self.spans:
            name = record[_NAME]
            own = record[_END] - record[_START] - record[_CHILD] - record[_LEAF]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for name in {n for _, _, n in SPAN_TARGETS}:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name, (count, busy, _) in self.counters.items():
            out[name + ".calls"] = count
            out[name + ".busy_s"] = busy
        count, _, accepted = self.counters["theta.membership"]
        out["theta.membership.accept_ratio"] = accepted / count if count else 0.0
        iterations, converged, starts = self.newton
        out["theta.newton.iterations"] = iterations
        out["theta.newton.converged_ratio"] = converged / starts if starts else 0.0
        under_flag = self._calls_under_flag(("totpos.is_g_positive",
                                             "exactmat.exterior_power",
                                             "flag.eigen_flag"))
        for metric, name in (("flag.is_g_positive_per_item", "totpos.is_g_positive"),
                             ("flag.eigen_flag_per_item", "flag.eigen_flag"),
                             ("flag.exterior_power_per_item", "exactmat.exterior_power")):
            out[metric] = under_flag[name] / items if items else 0.0
        return out

    def _calls_under_flag(self, names):
        """Calls of each name, inside a benchmark item, below a flag span."""
        counts = dict.fromkeys(names, 0)
        for record in self.spans:
            if record[_NAME] not in counts or record[_ITEM] < 0:
                continue
            parent = record[_PARENT]
            while parent >= 0:
                if self.spans[parent][_NAME].startswith("flag."):
                    counts[record[_NAME]] += 1
                    break
                parent = self.spans[parent][_PARENT]
        return counts

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record[:_CHILD]) + "\n")


def _namespaces():
    """Every loaded tpflag module and every class defined in one."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tpflag" or name.startswith("tpflag.")):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                owners.append(value)
    return owners
