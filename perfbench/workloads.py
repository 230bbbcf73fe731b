"""The three benchmark workloads and the loop that measures them.

Every workload uses the default.ini optimizer settings and model widths
(lr 1e-4, batch 1, Adam 0.9/0.999/1e-8) with a fixed epoch budget and
patience equal to the budget, so every run takes the same number of
optimizer steps. All inputs come from the workload seed. The data is
the `mcar_asym_noise` scenario: 600 samples, 2 modalities of width 32,
class_sep 3, noise [0.5, 2.0], MCAR rate 0.5.

setfusion functions are called through their modules (`trainer.run_full`)
so that the tracer's wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from setfusion import baselines, compare, data, encoder, setnet, trainer
from setfusion.config import default_config
from setfusion.rng import SeededRng

from perfbench.layers import COMPARE_MODELS, PER_LAYER, layer_metrics, make_targets, micro_timings
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())

# name -> unit, in report order; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "predict_us_p50": "us",
    "predict_us_p99": "us",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

MCAR_ASYM_NOISE = compare.Scenario(
    name="mcar_asym_noise", n=600, num_modalities=2, payload_width=32, class_sep=3.0,
    noise_sigma=[0.5, 2.0], missing_rate=0.5, mechanism="mcar", models=COMPARE_MODELS,
)


@dataclass(frozen=True)
class Budget:
    n: int = 600
    epochs: int = 4  # epoch budget of every timed training
    setup_epochs: int = 0  # stage-1 epochs fitted during set-up
    setups: int = 5  # set-up repetitions; setup_s is their median
    latency_batch: int = 1000  # at least this many predict_proba calls a batch
    latency_batches: int = 3  # at least this many batches in all


@dataclass
class Outcome:
    record: object  # deterministic result; its digest is the correctness check
    accuracy: float
    predictors: list = field(default_factory=list)  # (model, enc, sets) for latency
    task_s: dict = field(default_factory=dict)  # model -> seconds (in-process compare)
    fills: dict = field(default_factory=dict)  # model -> baseline slot fills
    joint_metrics: dict | None = None  # the compare task's setfusion_joint MetricSet


def digest(record) -> str:
    """SHA-256 of canonical JSON; a NaN or Inf anywhere raises ValueError."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config(seed: int, epochs: int):
    return replace(default_config(), seed=seed, max_epochs_phase1=epochs,
                   max_epochs_phase2=epochs, patience=epochs)


def _make_data(sc: compare.Scenario, seed: int):
    """The same inputs `compare.run_scenario_model` generates for `sc`."""
    schema = sc.schema()
    samples = data.generate(schema, sc.n, seed=(seed, "data"), class_sep=sc.class_sep,
                            noise_sigma=sc.noise_sigma, bag_size_range=sc.bag_size_range)
    masked = data.apply_missingness(samples, rate=sc.missing_rate, mechanism=sc.mechanism,
                                    seed=(seed, "mask"), k=sc.k)
    return schema, masked


def _all_sets(schema, masked):
    return [data.to_set(s, schema) for s in masked]


class TwoStageMcar:
    """One two-stage `run_full`: the paper's pipeline, optimizer-bound."""

    name = "two_stage_mcar"
    budget = Budget(epochs=3)

    def setup(self, seed: int, budget: Budget) -> dict:
        cfg = _config(seed, budget.epochs)
        schema, masked = _make_data(replace(MCAR_ASYM_NOISE, n=budget.n), seed)
        return {"cfg": cfg, "schema": schema, "masked": masked,
                "all_sets": _all_sets(schema, masked)}

    def setup_record(self, state: dict):
        return [s.mask.tolist() for s in state["masked"]]

    def run(self, state: dict, in_process: bool = False) -> Outcome:
        report, enc, model = trainer.run_full(state["cfg"], state["schema"], state["masked"])
        return Outcome(report.to_dict(), report.metrics.accuracy,
                       [(model, enc, state["all_sets"])])

    def predictors(self, state: dict, outcome: Outcome, checker) -> list:
        return outcome.predictors


class Stage2SweepBags:
    """Stage 2 over a frozen encoder, once per aggregator, on bag data."""

    name = "stage2_sweep_bags"
    budget = Budget(epochs=4, setup_epochs=2, setups=3)

    def setup(self, seed: int, budget: Budget) -> dict:
        cfg = _config(seed, budget.epochs)
        sc = replace(MCAR_ASYM_NOISE, n=budget.n, bag_modalities=(1,), bag_size_range=(2, 5))
        schema, masked = _make_data(sc, seed)
        train, val, test = data.split(masked, cfg.split_ratios, seed=(seed, "split"))
        enc = encoder.Encoder(cfg.encoder_config(schema), SeededRng((seed, "init_encoder")))
        stage1 = replace(cfg, max_epochs_phase1=budget.setup_epochs, patience=budget.setup_epochs)
        trainer.train_phase1(enc, trainer.collect_phase1_items(train, schema),
                             trainer.collect_phase1_items(val, schema), stage1)
        enc.freeze()
        return {
            "cfg": cfg, "schema": schema, "enc": enc,
            "checksum": encoder.parameter_checksum(enc.named_parameters()),
            "sets": [[data.to_set(s, schema) for s in part] for part in (train, val, test)],
        }

    def setup_record(self, state: dict):
        return state["checksum"]

    def run(self, state: dict, in_process: bool = False) -> Outcome:
        cfg, enc = state["cfg"], state["enc"]
        train_sets, val_sets, test_sets = state["sets"]
        record, accs, predictors = {}, [], []
        for agg in setnet.AGGREGATOR_KINDS:
            model = setnet.SetClassifier(cfg.d_l, state["schema"].num_classes,
                                         SeededRng((cfg.seed, "init_rho")),
                                         hidden=cfg.rho_hidden, aggregator=agg)
            phase = trainer.train_phase2(model, enc, train_sets, val_sets, cfg)
            metrics = trainer.evaluate_sets(model, enc, test_sets, cfg.positive_class)
            if encoder.parameter_checksum(enc.named_parameters()) != state["checksum"]:
                raise RuntimeError(f"frozen encoder changed during the {agg} fit")
            record[agg] = {"phase2": phase.to_dict(), "metrics": metrics.to_dict()}
            accs.append(metrics.accuracy)
            predictors.append((model, enc, train_sets + val_sets + test_sets))
        return Outcome(record, float(np.mean(accs)), predictors)

    def predictors(self, state: dict, outcome: Outcome, checker) -> list:
        return outcome.predictors


class JointAndBaselines:
    """`scenario_compare` over the joint ablation and five baselines."""

    name = "joint_and_baselines"
    budget = Budget(epochs=4)

    def setup(self, seed: int, budget: Budget) -> dict:
        cfg = _config(seed, budget.epochs)
        sc = replace(MCAR_ASYM_NOISE, n=budget.n)
        schema, masked = _make_data(sc, seed)
        return {"cfg": cfg, "scenario": sc, "schema": schema, "masked": masked,
                "jobs": min(2, os.cpu_count() or 1)}

    def setup_record(self, state: dict):
        return [s.mask.tolist() for s in state["masked"]]

    def run(self, state: dict, in_process: bool = False) -> Outcome:
        """With `in_process`, tasks run serially here and each task's
        time and baseline fills are read at the progress callback."""
        sc, cfg = state["scenario"], state["cfg"]
        task_s, fills = {}, {}
        if in_process:
            baselines.reset_fill_count()
            last = [time.perf_counter(), 0]

            def progress(key):
                now, count = time.perf_counter(), baselines.fill_count()
                task_s[key[1]] = now - last[0]
                fills[key[1]] = count - last[1]
                last[:] = [now, count]

            result = compare.scenario_compare([sc], [cfg.seed], cfg, jobs=1, progress=progress)
        else:
            result = compare.scenario_compare([sc], [cfg.seed], cfg, jobs=state["jobs"])
        accs = [result.runs[(sc.name, m, cfg.seed)].accuracy for m in sc.models]
        joint = result.runs[(sc.name, "setfusion_joint", cfg.seed)].to_dict()
        return Outcome([list(r) for r in result.table_rows()], float(np.mean(accs)),
                       task_s=task_s, fills=fills, joint_metrics=joint)

    def predictors(self, state: dict, outcome: Outcome, checker) -> list:
        """Retrain the joint model here (the compare task keeps its model)
        and require the same metrics as the task produced."""
        cfg = replace(state["cfg"], two_steps=False)
        report, enc, model = trainer.run_full(cfg, state["schema"], state["masked"])
        if report.metrics.to_dict() != outcome.joint_metrics:
            checker.fail("joint model", "in-process joint model disagrees with the compare task")
        return [(model, enc, _all_sets(state["schema"], state["masked"]))]


WORKLOADS = {w.name: w for w in (TwoStageMcar(), Stage2SweepBags(), JointAndBaselines())}


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(), "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Checker:
    """Counts attempted and failed operations; a failure is an exception,
    a non-finite value in a result, or a digest that differs from the
    golden one (when this seed has one) or from the first in this run."""

    def __init__(self, golden: str | None):
        self.expected = golden
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {label}: {message}", flush=True)

    def attempt(self, label: str, fn, *args, record=lambda out: out.record, **kwargs):
        """Call fn; None if it raised. A wrong result is still returned,
        since its timing is valid, but counts as a failure."""
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.fail(label, traceback.format_exc())
            return None
        if record is None:
            self.attempted += 1
            return out
        try:
            got = digest(record(out))
        except ValueError as exc:
            self.fail(label, f"non-finite value in the result: {exc}")
            return out
        if self.expected is None:
            self.expected = got
        if got != self.expected:
            self.fail(label, f"digest {got} != expected {self.expected}")
        else:
            self.attempted += 1
        return out


def _shape(obs) -> tuple:
    """(modality, instance count) of every element; 0 for a plain payload."""
    return tuple((m.index, len(p) if isinstance(p, list) else 0) for p, m in obs.elements)


def balanced_probe(sets: list) -> list:
    """The first k sets of every shape, k the count of the rarest shape,
    interleaved shape by shape. Every seed then times the same mix of
    shapes, so the median does not jump between shapes as the seed
    moves the share of each by a few sets."""
    by_shape: dict = {}
    for obs in sets:
        by_shape.setdefault(_shape(obs), []).append(obs)
    k = min(map(len, by_shape.values()))
    return [by_shape[shape][r] for r in range(k) for shape in sorted(by_shape)]


class LatencySampler:
    """Times predict_proba one set at a time on the balanced probe of
    every trained model's sets. A batch makes whole passes over the
    probes, so every batch times the same calls in the same order.
    Batches are spread over the run and each starts with untimed calls
    so that the caches a training run evicted are warm again. The median
    and the 99th percentile are taken over the calls (at least 1,000, so
    ten or more lie beyond the 99th) of each call's median over the
    batches, so that neither a burst of outside load nor the machine's
    slower state in a minority of the batches moves them. The same set
    must give the same probabilities every time."""

    WARMUP = 30

    def __init__(self, predictors: list, checker: Checker):
        if not predictors:
            raise ValueError("no model to time predict_proba on")
        self.predictors = [(model, enc, balanced_probe(sets)) for model, enc, sets in predictors]
        self.checker = checker
        self.first: dict = {}
        self.batches: list[list[float]] = []

    def take(self, min_calls: int) -> None:
        passes = -(-min_calls // sum(len(sets) for _, _, sets in self.predictors))
        batch = []
        for j, (model, enc, sets) in enumerate(self.predictors):
            for obs in sets[:self.WARMUP]:
                setnet.predict_proba(model, enc, obs)
            for _ in range(passes):
                for i, obs in enumerate(sets):
                    t0 = time.perf_counter_ns()
                    proba = setnet.predict_proba(model, enc, obs)
                    batch.append((time.perf_counter_ns() - t0) / 1e3)
                    if not np.array_equal(self.first.setdefault((j, i), proba), proba):
                        self.checker.fail("predict_proba", f"set {i} of model {j} changed")
        self.batches.append(batch)

    def per_call_us(self) -> list[float]:
        """Each call's median over the batches."""
        return [statistics.median(call) for call in zip(*self.batches)]

    def p50_us(self) -> float:
        return statistics.median(self.per_call_us())

    def p99_us(self) -> float:
        return statistics.quantiles(self.per_call_us(), n=100, method="inclusive")[98]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the waited-for pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def measure(name: str, seed: int, seconds: float, budget: Budget | None = None) -> dict:
    """Untraced run: end-to-end metrics."""
    w = WORKLOADS[name]
    budget = budget or w.budget
    golden = GOLDEN.get(name, {}).get(str(seed)) if budget == w.budget else None
    setup_check, check = Checker(None), Checker(golden)

    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        out = setup_check.attempt(f"setup {len(setup_times)}", w.setup, seed, budget,
                                  record=w.setup_record)
        setup_times.append(time.perf_counter() - t0)
        return out

    state = timed_setup()
    if state is None:
        raise RuntimeError("set-up failed")

    run_times, outcome, sampler = [], None, None
    started = time.perf_counter()
    while not check.attempted or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        out = check.attempt(f"run {check.attempted}", w.run, state)
        if out is None:
            continue
        run_times.append(time.perf_counter() - t0)
        outcome = out
        if sampler is None:
            sampler = LatencySampler(w.predictors(state, out, check), check)
        sampler.take(budget.latency_batch)
        if len(setup_times) < budget.setups:
            timed_setup()  # repeated between runs, so the median spans the run
    if outcome is None:
        raise RuntimeError("every timed run failed")
    while len(sampler.batches) < budget.latency_batches:
        sampler.take(budget.latency_batch)
    while len(setup_times) < budget.setups:
        timed_setup()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(run_times),
        "predict_us_p50": sampler.p50_us(),
        "predict_us_p99": sampler.p99_us(),
        "accuracy": outcome.accuracy,
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = {
        "setups": len(setup_times), "runs": len(run_times),
        "predict_samples": sum(map(len, sampler.batches)), "predict_calls": len(sampler.batches[0]),
        "predict_batches": len(sampler.batches), "digest": check.expected, "golden": golden is not None,
    }
    return _result([setup_check, check], metrics, END_TO_END, notes)


def measure_traced(name: str, seed: int, budget: Budget | None = None) -> dict:
    """Traced run: per-layer metrics and the tracing overhead.

    The overhead is the traced run's time minus an untraced run of the
    same calls in the same process layout (the compare tasks run
    in-process in both, so their spans are visible).
    """
    w = WORKLOADS[name]
    budget = budget or w.budget
    golden = GOLDEN.get(name, {}).get(str(seed)) if budget == w.budget else None
    check = Checker(golden)

    state = w.setup(seed, budget)
    ref_s, ref = _timed(check.attempt, "untraced run", w.run, state, in_process=True)
    metrics = {}
    if name == "joint_and_baselines" and ref is not None:
        pool_s, _ = _timed(check.attempt, "untraced pool run", w.run, state)
        tasks = [ref.task_s[m] for m in COMPARE_MODELS]
        metrics.update({f"compare.run_scenario_model_s.{m}": ref.task_s[m] for m in COMPARE_MODELS})
        metrics["compare.critical_task_s"] = max(tasks)
        metrics["compare.pool_idle_share"] = 1.0 - sum(tasks) / (state["jobs"] * pool_s)

    tracer = Tracer()
    with tracer.installed("setfusion", make_targets()):
        tracer.trace_id = "setup"
        traced_state = w.setup(seed, budget)
        tracer.trace_id = "run"
        traced_s, traced = _timed(check.attempt, "traced run", w.run, traced_state, in_process=True)

    if traced is not None and traced.fills:
        if traced.fills.get("setfusion_joint", 0) != 0:
            check.fail("fill_count", "the set-based model filled missing slots")
        metrics["baselines.fill_count"] = sum(traced.fills.values())
    layer = layer_metrics(tracer)
    layer.update(micro_timings())
    layer.update(metrics)
    layer["trace.overhead_s"] = traced_s - ref_s
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl_gz(OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz")
    notes = {"spans": len(tracer.spans), "digest": check.expected, "golden": golden is not None}
    return _result([check], layer, PER_LAYER, notes)


def _result(checkers: list[Checker], values: dict, units: dict, notes: dict) -> dict:
    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "notes": notes,
    }
