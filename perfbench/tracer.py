"""Per-layer spans recorded from outside hallcal.

`Tracer.installed()` wraps the public functions of each hallcal module for
the duration of one operation and restores them afterwards. A wrapper
patches the name its caller looks up: engine imports `adam_search` and
`hybrid_search`, cli imports `calibrate`, `cmaes_1p1`, `build_adjacency`
and `run_datavolume_study`, and study imports `train`, `train_trainable`,
`mlp_train` and `build_adjacency`, so those are patched in the importing
module. Methods are patched on their class.

A span is [name, start, end, parent index]. Spans stay in memory until the
run ends. Quantities the tracer computes itself (training losses, holdout
errors) run inside a `trace.measure` span, so they count as tracing
overhead and not as the self time of the layer that called them.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

from hallcal import cli, engine, fileio, mlp, optim, solver, study, surrogate

MEASURE = "trace.measure"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._last_fit = None  # (layer, model) of the latest calibration fit
        self.missing: set[str] = set()  # patch targets hallcal no longer has

    def start_op(self) -> None:
        self._last_fit = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(MEASURE):
                    after(result, *args, **kwargs)
            return result
        return traced

    # -- hooks: run after the wrapped call returns ---------------------------

    def _holdout(self, temps, _solver, x):
        # a solve the latest surrogate has not been trained on
        if self._last_fit is not None:
            layer, model = self._last_fit
            self.samples[layer + ".holdout_mae_c"].append(engine.mae(model.predict(x), temps))

    def _knowledge_fit(self, _, model, dataset):
        self._last_fit = ("surrogate", model)
        self.samples["surrogate.train_loss"].append(
            surrogate.loss_l1(model.weights, model.priors, dataset))

    def _mlp_fit(self, _, model, dataset):
        self._last_fit = ("mlp", model)
        self.samples["mlp.train_loss"].append(mlp.mlp_loss_l1(model.weights, dataset))

    def _count(self, key):
        def after(result, *args, **kwargs):
            self.counts[key] += result.n_evals
        return after

    def _hybrid(self, result, *args, **kwargs):
        self.counts["optim.searches"] += 1
        self.counts["optim.adam_wins"] += result.fun < result.de_fun

    def _bytes(self, path_index):
        def after(_, *args):
            self.counts["fileio.bytes_written"] += Path(args[path_index]).stat().st_size
        return after

    def _patches(self):
        km, vm = engine.KnowledgeSurrogateModel, engine.VanillaSurrogateModel
        train_loss = self.samples["surrogate.train_loss"].append
        mlp_loss = self.samples["mlp.train_loss"].append
        table = [
            (solver.ThermalSolver, "solve", "solver.solve", self._holdout),
            (solver, "external_solve", "bridge.solve", None),
            (km, "fit", "surrogate.fit", self._knowledge_fit),
            (vm, "fit", "mlp.fit", self._mlp_fit),
            (study, "train", "surrogate.fit",
             lambda w, _w0, priors, data, _cfg: train_loss(surrogate.loss_l1(w, priors, data))),
            (study, "train_trainable", "surrogate.fit",
             lambda w, _w0, mask, data, _cfg: train_loss(surrogate.loss_l1_trainable(w, mask, data))),
            (study, "mlp_train", "mlp.fit",
             lambda w, _w0, data, _cfg: mlp_loss(mlp.mlp_loss_l1(w, data))),
            (km, "l2", "objective.l2", None),
            (vm, "l2", "objective.l2", None),
            (km, "l2_grad_alpha", "objective.grad", None),
            (vm, "l2_grad_alpha", "objective.grad", None),
            (optim, "de_search", "optim.de", self._count("optim.de_evals")),
            (optim, "adam_search", "optim.adam", self._count("optim.adam_evals")),
            (engine, "adam_search", "optim.adam", self._count("optim.adam_evals")),
            (engine, "hybrid_search", "optim.search", self._hybrid),
            (cli, "cmaes_1p1", "optim.es", self._count("optim.es_evals")),
            (cli, "calibrate", "engine.calibrate", None),
            (engine, "augment", "engine.augment", None),
            (cli, "run_datavolume_study", "study.run", None),
            (cli, "build_adjacency", "hall.build_adjacency", None),
            (study, "build_adjacency", "hall.build_adjacency", None),
            (fileio, "write_csv", "fileio.write", self._bytes(0)),
            (fileio, "save_alpha", "fileio.write", self._bytes(2)),
            (fileio, "_dump_json", "fileio.write", self._bytes(1)),
        ]
        table += [(fileio, name, "fileio.read", None)
                  for name in ("load_layout", "load_scenario", "load_state",
                               "load_measurements", "load_alpha")]
        return table

    @contextlib.contextmanager
    def installed(self):
        table = []
        for owner, attr, name, after in self._patches():
            if hasattr(owner, attr):
                table.append((owner, attr, name, after))
            else:  # renamed or moved in hallcal: its layer metrics read 0
                self.missing.add(f"{owner.__name__}.{attr}")
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in table]
        try:
            for owner, attr, name, after in table:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer numbers, per traced op unless the name says per call."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and self.spans[parent][0] == name:
                continue  # counted with the span of the same name that encloses it
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[i]

        def per_op(value):
            return value / n_ops

        def per_call(name, scale):
            return scale * total[name] / calls[name] if calls[name] else 0.0

        def mean(key):
            return statistics.fmean(self.samples[key]) if self.samples[key] else 0.0

        c = self.counts
        searches = c["optim.searches"]
        return {
            "solver.calls": (per_op(calls["solver.solve"]), "count"),
            "solver.ms_per_call": (per_call("solver.solve", 1e3), "ms"),
            "bridge.calls": (per_op(calls["bridge.solve"]), "count"),
            "bridge.ms_per_call": (per_call("bridge.solve", 1e3), "ms"),
            "bridge.failed": (c["bridge.solve.failed"], "count"),
            "surrogate.fit_calls": (per_op(calls["surrogate.fit"]), "count"),
            "surrogate.fit_s": (per_op(total["surrogate.fit"]), "s"),
            "surrogate.fit_ms_per_call": (per_call("surrogate.fit", 1e3), "ms"),
            "surrogate.train_loss": (mean("surrogate.train_loss"), "degC2"),
            "surrogate.holdout_mae_c": (mean("surrogate.holdout_mae_c"), "degC"),
            "mlp.fit_calls": (per_op(calls["mlp.fit"]), "count"),
            "mlp.fit_s": (per_op(total["mlp.fit"]), "s"),
            "mlp.fit_ms_per_call": (per_call("mlp.fit", 1e3), "ms"),
            "mlp.train_loss": (mean("mlp.train_loss"), "degC2"),
            "mlp.holdout_mae_c": (mean("mlp.holdout_mae_c"), "degC"),
            "optim.de_s": (per_op(total["optim.de"]), "s"),
            "optim.de_evals": (per_op(c["optim.de_evals"]), "count"),
            "optim.adam_s": (per_op(total["optim.adam"]), "s"),
            "optim.adam_evals": (per_op(c["optim.adam_evals"]), "count"),
            "optim.adam_win_frac": (c["optim.adam_wins"] / searches if searches else 0.0, "ratio"),
            "optim.es_evals": (per_op(c["optim.es_evals"]), "count"),
            "objective.calls": (per_op(calls["objective.l2"]), "count"),
            "objective.us_per_call": (per_call("objective.l2", 1e6), "us"),
            "objective.grad_calls": (per_op(calls["objective.grad"]), "count"),
            "objective.grad_us_per_call": (per_call("objective.grad", 1e6), "us"),
            "engine.self_s": (per_op(self_time["engine.calibrate"]), "s"),
            "engine.augment_s": (per_op(total["engine.augment"]), "s"),
            "fileio.read_s": (per_op(total["fileio.read"]), "s"),
            "fileio.write_s": (per_op(total["fileio.write"]), "s"),
            "fileio.bytes_written": (per_op(c["fileio.bytes_written"]), "bytes"),
            "cli.self_s": (per_op(self_time["cli.main"]), "s"),
            "hall.build_adjacency_s": (per_op(total["hall.build_adjacency"]), "s"),
        }

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        lines += [f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}"
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")
