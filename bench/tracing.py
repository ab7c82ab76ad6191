"""In-memory tracer for the benchmark's traced run.

`Tracer.install()` replaces public functions of the `uga` modules with
wrappers, in the namespace where each caller looks them up (`train.py`
imports `model_forward` by name, so `uga.train.model_forward` is wrapped;
ops are called as `ad.<op>`, so `uga.autodiff.<op>` is wrapped).
`Tracer.restore()` puts every original back.

Two kinds of wrapper:

* layer spans: one record per call (name, layer, start, end, parent, root
  context, training arm).  A span's self time is its duration minus the
  durations of its child layer spans.
* autodiff ops: aggregated per (root context, op) as a call count and a
  self time (op time minus nested op time), so a million-node gradient
  check costs counters, not a million records.  Ops do not subtract from
  layer self time: a layer's self time includes the ops it issues.

Wrappers only time, count and call through.  They never touch arguments
or results, so a traced run performs the same arithmetic as an untraced
one.
"""

from __future__ import annotations

import functools

import uga.alignment
import uga.autodiff
import uga.cli
import uga.data
import uga.gradcheck
import uga.metrics
import uga.models
import uga.train

from speed import clock

# Span record fields.
NAME, LAYER, START, END, PARENT, CONTEXT, ARM, CHILD, OPS = range(9)

# (module, attribute, layer, span name): every layer-level function the
# benchmark times, wrapped where its caller resolves it.
LAYER_TARGETS = (
    (uga.train, "train_uga", "train", "train.train_uga"),
    (uga.train, "assemble_loss", "train", "train.assemble_loss"),
    (uga.train.AdamOptimizer, "step", "train", "train.step"),
    (uga.train, "model_forward", "models", "models.forward"),
    (uga.metrics, "model_forward", "models", "models.eval_forward"),
    (uga.models, "save_checkpoint", "models", "models.checkpoint"),
    (uga.models, "load_checkpoint", "models", "models.checkpoint"),
    (uga.train, "evidential_loss", "evidential", "evidential.loss"),
    (uga.models, "nig_from_raw", "evidential", "evidential.nig_from_raw"),
    (uga.metrics, "predictive_interval", "evidential", "evidential.interval"),
    (uga.metrics, "uncertainties", "evidential", "evidential.uncertainties"),
    (uga.alignment, "median_bandwidth", "alignment", "alignment.bandwidth"),
    (uga.train, "mmd2_biased", "alignment", "alignment.mmd"),
    (uga.train, "augmented_embedding", "alignment", "alignment.embed"),
    (uga.train, "posterior_vector", "alignment", "alignment.embed"),
    (uga.metrics, "mmd2_biased", "alignment", "alignment.eval_gap"),
    (uga.metrics, "evaluate", "metrics", "metrics.evaluate"),
    (uga.data, "gen_battery_curves", "data", "data.simulate"),
    (uga.data, "write_battery_csv", "data", "data.write"),
    (uga.data, "ingest_battery_csv", "data", "data.ingest"),
    (uga.data, "split_by_cycle", "data", "data.window"),
    (uga.data, "windows_to_set", "data", "data.window"),
    (uga.gradcheck, "run_all", "gradcheck", "gradcheck.run_all"),
    (uga.gradcheck, "suite_primitives", "gradcheck", "gradcheck.suite.primitives"),
    (uga.gradcheck, "suite_nll", "gradcheck", "gradcheck.suite.evidential_nll"),
    (uga.gradcheck, "suite_mmd", "gradcheck", "gradcheck.suite.mmd"),
    (uga.gradcheck, "suite_mlp", "gradcheck", "gradcheck.suite.mlp_model"),
    (uga.gradcheck, "suite_lstm", "gradcheck", "gradcheck.suite.lstm"),
    (uga.cli, "main", "cli", "cli.main"),
    (uga.autodiff, "backward", "autodiff", "autodiff.backward"),
)

# Public graph-building functions of the autodiff module.
OP_NAMES = tuple(n for n in uga.autodiff.__all__
                 if n not in ("Tensor", "ShapeError", "DomainError",
                              "no_grad", "backward"))

_ONES_KEEP = 4096  # ones tensors held alive so their ids stay unique


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_stats: dict[tuple, list] = {}   # (context, op) -> [calls, self_s]
        self.op_nesting: list[float] = []
        self.failed: dict[str, int] = {}
        self.matmuls = {}                       # context -> [calls, with ones]
        self.forward_evals = 0
        self.arm = None
        self._ones: dict[int, object] = {}
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, name in LAYER_TARGETS:
            self._patch(owner, attr, self._span(getattr(owner, attr), layer, name))
        self._patch(uga.gradcheck, "compare",
                    self._counting_compare(uga.gradcheck.compare))
        for op in OP_NAMES:
            self._patch(uga.autodiff, op, self._op(getattr(uga.autodiff, op), op))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._ones.clear()

    def installed_leftovers(self) -> list[str]:
        """Names still bound to a tracer wrapper (empty after restore)."""
        left = []
        targets = [(o, a) for o, a, _, _ in LAYER_TARGETS]
        targets += [(uga.gradcheck, "compare")]
        targets += [(uga.autodiff, op) for op in OP_NAMES]
        for owner, attr in targets:
            if getattr(getattr(owner, attr), "__bench_traced__", False):
                left.append(f"{owner.__name__}.{attr}")
        return left

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        wrapper.__bench_traced__ = True
        setattr(owner, attr, wrapper)

    def _fail(self, layer: str) -> None:
        self.failed[layer] = self.failed.get(layer, 0) + 1

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer, name):
        spans, stack = self.spans, self.stack
        lstm = name == "gradcheck.suite.lstm"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_name = name
            if lstm:
                span_name = ("gradcheck.suite.lstm_model_100step"
                             if kwargs.get("window_len", 10) == 100
                             else "gradcheck.suite.lstm_model")
            context = spans[parent][CONTEXT] if parent >= 0 else span_name
            rec = [span_name, layer, 0.0, 0.0, parent, context, self.arm, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._fail(layer)
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
        return wrapper

    def _counting_compare(self, fn):
        @functools.wraps(fn)
        def wrapper(build, leaves, *args, **kwargs):
            def counted(ls):
                self.forward_evals += 1
                return build(ls)
            return fn(counted, leaves, *args, **kwargs)
        return wrapper

    def _op(self, fn, op):
        spans, stack, nesting = self.spans, self.stack, self.op_nesting
        stats = self.op_stats
        ones, matmuls = self._ones, self.matmuls
        is_ones, is_matmul = op == "ones", op == "matmul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            context = spans[stack[0]][CONTEXT] if stack else None
            if stack:
                spans[stack[-1]][OPS] += 1
            if is_matmul:
                m = matmuls.get(context) or matmuls.setdefault(context, [0, 0])
                m[0] += 1
                if any(ones.get(id(a)) is a for a in args):
                    m[1] += 1
            nesting.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._fail("autodiff")
                raise
            finally:
                dt = clock() - t0
                inner = nesting.pop()
                if nesting:
                    nesting[-1] += dt
                s = stats.get((context, op)) or stats.setdefault((context, op), [0, 0.0])
                s[0] += 1
                s[1] += dt - inner
            if is_ones:
                if len(ones) >= _ONES_KEEP:
                    ones.clear()
                ones[id(out)] = out
            return out
        return wrapper

    # -- summaries ------------------------------------------------------------

    def self_s(self, name: str, context: str | None = None, arm=None) -> float:
        """Total self time of spans called `name` (optionally in one root
        context and one arm)."""
        return self._sum(name, context, arm, self_only=True)

    def total_s(self, name: str, context: str | None = None, arm=None) -> float:
        return self._sum(name, context, arm, self_only=False)

    def _sum(self, name, context, arm, self_only) -> float:
        total = 0.0
        for r in self.spans:
            if r[NAME] == name and (context is None or r[CONTEXT] == context) \
                    and (arm is None or r[ARM] == arm):
                total += r[END] - r[START] - (r[CHILD] if self_only else 0.0)
        return total

    def calls(self, name: str, context: str | None = None) -> int:
        return sum(1 for r in self.spans
                   if r[NAME] == name and (context is None or r[CONTEXT] == context))

    def ops_under(self, name: str, context: str | None = None) -> int:
        """Ops issued inside spans called `name`, their descendants included."""
        ops = [r[OPS] for r in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][PARENT]
            if parent >= 0:
                ops[parent] += ops[i]
        return sum(ops[i] for i, r in enumerate(self.spans)
                   if r[NAME] == name and (context is None or r[CONTEXT] == context))

    def op_calls(self, op: str | None, context) -> int:
        return sum(v[0] for (c, o), v in self.op_stats.items()
                   if c == context and (op is None or o == op))

    def op_self_s(self, op: str, context) -> float:
        v = self.op_stats.get((context, op))
        return v[1] if v else 0.0

    def starts(self, name: str) -> list[tuple[int, float]]:
        """(parent index, start) of every span called `name`."""
        return [(r[PARENT], r[START]) for r in self.spans if r[NAME] == name]

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "span_fields": ["name", "layer", "start_s", "end_s", "parent",
                            "context", "arm", "child_s", "ops"],
            "spans": [[r[NAME], r[LAYER], round(r[START] - t0, 7),
                       round(r[END] - t0, 7), r[PARENT], r[CONTEXT], r[ARM],
                       round(r[CHILD], 7), r[OPS]] for r in self.spans],
            "ops": [[c, o, v[0], round(v[1], 7)]
                    for (c, o), v in sorted(self.op_stats.items(), key=str)],
            "matmuls": {str(k): v for k, v in self.matmuls.items()},
            "failed_calls": dict(self.failed),
            "forward_evals": self.forward_evals,
        }
