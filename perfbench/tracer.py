"""Outside-in layer tracer for submax.

Wraps the public entry points of each submax module from outside the package
and records, per span name, the call count, inclusive seconds and self seconds
(inclusive time minus the time of wrapped children), plus counters computed
from the arguments and results at the same boundary.

The wrappers must not change the code paths they measure:

- ``oracle.evaluate_batch`` picks its mask path by testing
  ``type(f)._evaluate_batch is not Objective._evaluate_batch``, so objective
  methods are wrapped only where a subclass defines them in its own
  ``__dict__``; a class that inherits the base method keeps inheriting it.
- submax modules import functions by name (``from .oracle import
  evaluate_batch``), so each wrapped function is rebound in every ``submax.*``
  namespace that holds it, not only in the module that defines it.

Everything is restored on exit from the ``with`` block.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from submax import baselines, harness, nonmonotone, objectives, oracle, threshold, unconstrained
from submax.oracle import Objective, Subset

from workloads import anm_winner


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Span and counter store; install with ``with tracer:``."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.incl.clear()
        self.self_s.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack
        calls, incl, self_s = self.calls, self.incl, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - frame[0]
            if after is not None:
                after(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _rebind_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "submax" and not mod_name.startswith("submax."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _rebind_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, before, after))

    # ------------------------------------------------------------------
    # install / restore

    def __enter__(self) -> "Tracer":
        self._install_oracle()
        self._install_objectives()
        self._install_algorithms()
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _install_oracle(self) -> None:
        def rows(key, pos, arg):
            def before(tr, args, kwargs):
                tr.counts[key] += len(_arg(args, kwargs, pos, arg))
            return before

        self._rebind_function(oracle, "evaluate_batch", "oracle.evaluate_batch",
                              before=rows("oracle.evaluate_batch.rows", 1, "queries"))
        self._rebind_function(oracle, "batch_marginals", "oracle.batch_marginals",
                              before=rows("oracle.batch_marginals.rows", 2, "candidates"))
        self._rebind_function(oracle, "batch_pair_gains", "oracle.batch_pair_gains",
                              before=rows("oracle.batch_pair_gains.rows", 3, "xs"))

        original_init = Subset.__dict__["__init__"]
        counts = self.counts

        def counting_init(subset, *args, **kwargs):
            counts["oracle.subset_new"] += 1
            original_init(subset, *args, **kwargs)

        self._undo.append((Subset, "__init__", original_init))
        Subset.__init__ = counting_init

    def _install_objectives(self) -> None:
        def gain_before(tr, args, kwargs):
            tr.counts["objectives.gain_batch.t_cells"] += _arg(args, kwargs, 2, "t_mat").size

        def gain_after(tr, result, args, kwargs):
            if result is None:
                tr.counts["objectives.gain_batch.fallbacks"] += 1

        pending = [Objective]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is Objective:
                continue
            own = cls.__dict__
            if "_gain_batch" in own:
                self._rebind_method(cls, "_gain_batch", "objectives.gain_batch",
                                    gain_before, gain_after)
            if "_evaluate_batch" in own:
                self._rebind_method(cls, "_evaluate_batch", "objectives.evaluate_batch")
            if "_evaluate" in own:
                self._rebind_method(cls, "_evaluate", "objectives.evaluate")

        self._rebind_function(objectives, "generate_synthetic",
                              "objectives.generate_synthetic")
        self._rebind_method(objectives.Instance, "objective", "objectives.objective_init")

    def _install_algorithms(self) -> None:
        def keys(tr, args, kwargs):
            pool = _arg(args, kwargs, 1, "pool")
            tr.counts["threshold.draw_block_and_probe.keys"] += (
                int(_arg(args, kwargs, 3, "count")) * int(pool.size))

        def sampling_after(tr, outcome, args, kwargs):
            tr.counts[f"threshold.break.{outcome.break_reason.value}"] += 1
            tr.counts["threshold.logical_samples"] += outcome.ledger.logical_samples

        def draws(tr, args, kwargs):
            tr.counts["unconstrained.unconstrained_max.draws"] += _arg(
                args, kwargs, 2, "params").t

        def anm_after(tr, result, args, kwargs):
            _, _, trials = result
            tr.counts["nonmonotone.trials"] += len(trials)
            tr.counts[f"nonmonotone.winner.{anm_winner(trials)}"] += 1

        self._rebind_function(threshold, "draw_block_and_probe",
                              "threshold.draw_block_and_probe", before=keys)
        self._rebind_function(threshold, "threshold_sampling",
                              "threshold.threshold_sampling", after=sampling_after)
        self._rebind_function(unconstrained, "unconstrained_max",
                              "unconstrained.unconstrained_max", before=draws)
        self._rebind_function(nonmonotone, "adaptive_nonmonotone_max",
                              "nonmonotone.adaptive_nonmonotone_max", after=anm_after)

        for name, ledger_pos in (("greedy", 2), ("random_lazy_greedy", 4),
                                 ("random_prefix", 3)):
            self._rebind_baseline(name, ledger_pos)

        self._rebind_function(harness, "run_experiment", "harness.run_experiment")
        self._rebind_function(harness, "write_csv", "harness.write_csv")

    def _rebind_baseline(self, name, ledger_pos) -> None:
        start: list[int] = []

        def before(tr, args, kwargs):
            start.append(_arg(args, kwargs, ledger_pos, "ledger").rounds)

        def after(tr, result, args, kwargs):
            ledger = _arg(args, kwargs, ledger_pos, "ledger")
            tr.counts[f"baselines.{name}.rounds"] += ledger.rounds - start.pop()

        self._rebind_function(baselines, name, f"baselines.{name}", before, after)

    # ------------------------------------------------------------------
    # report

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        out: dict[str, float] = {}
        for op in ("evaluate_batch", "batch_marginals", "batch_pair_gains"):
            span = f"oracle.{op}"
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.rows"] = self.counts[f"{span}.rows"]
            out[f"{span}.s"] = self.incl[span]
            out[f"{span}.self_s"] = self.self_s[span]
        oracle_spans = [f"oracle.{op}" for op in
                        ("evaluate_batch", "batch_marginals", "batch_pair_gains")]
        out["oracle.metered_calls"] = sum(self.calls[s] for s in oracle_spans)
        out["oracle.framework_s"] = sum(self.self_s[s] for s in oracle_spans)
        out["oracle.subset_new"] = self.counts["oracle.subset_new"]

        gb = "objectives.gain_batch"
        out[f"{gb}.calls"] = self.calls[gb]
        out[f"{gb}.s"] = self.incl[gb]
        out[f"{gb}.fallbacks"] = self.counts[f"{gb}.fallbacks"]
        out[f"{gb}.t_cells"] = self.counts[f"{gb}.t_cells"]
        out[f"{gb}.fast_ratio"] = ((self.calls[gb] - self.counts[f"{gb}.fallbacks"])
                                   / self.calls[gb] if self.calls[gb] else 0.0)
        for span in ("objectives.evaluate_batch", "objectives.evaluate"):
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.incl[span]

        dbp = "threshold.draw_block_and_probe"
        out[f"{dbp}.calls"] = self.calls[dbp]
        out[f"{dbp}.s"] = self.incl[dbp]
        out[f"{dbp}.keys"] = self.counts[f"{dbp}.keys"]
        ts = "threshold.threshold_sampling"
        out[f"{ts}.calls"] = self.calls[ts]
        out[f"{ts}.s"] = self.incl[ts]
        out[f"{ts}.self_s"] = self.self_s[ts]
        for reason in threshold.BreakReason:
            out[f"threshold.break.{reason.value}"] = self.counts[
                f"threshold.break.{reason.value}"]
        out["threshold.logical_samples"] = self.counts["threshold.logical_samples"]

        um = "unconstrained.unconstrained_max"
        out[f"{um}.calls"] = self.calls[um]
        out[f"{um}.s"] = self.incl[um]
        out[f"{um}.self_s"] = self.self_s[um]
        out[f"{um}.draws"] = self.counts[f"{um}.draws"]

        anm = "nonmonotone.adaptive_nonmonotone_max"
        out[f"{anm}.s"] = self.incl[anm]
        out[f"{anm}.self_s"] = self.self_s[anm]
        out["nonmonotone.trials"] = self.counts["nonmonotone.trials"]
        for source in ("sampler", "prefix", "none"):
            out[f"nonmonotone.winner.{source}"] = self.counts[f"nonmonotone.winner.{source}"]

        for name in ("greedy", "random_lazy_greedy", "random_prefix"):
            span = f"baselines.{name}"
            out[f"{span}.s"] = self.incl[span]
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.rounds"] = self.counts[f"{span}.rounds"]

        out["harness.run_experiment.s"] = self.incl["harness.run_experiment"]
        out["harness.run_experiment.self_s"] = self.self_s["harness.run_experiment"]
        out["harness.write_csv.calls"] = self.calls["harness.write_csv"]
        out["harness.write_csv.s"] = self.incl["harness.write_csv"]
        return out

    def setup_metrics(self) -> dict[str, float]:
        return {"objectives.generate_synthetic.s": self.incl["objectives.generate_synthetic"],
                "objectives.objective_init.s": self.incl["objectives.objective_init"]}

