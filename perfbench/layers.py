"""The traced layer boundaries of setfusion and the per-layer metrics.

Only the calls that separate one layer from the next are wrapped, not
every tensor op: a wrapper costs about a microsecond, which is noise
next to a stage-1 item (~800 us) but would dominate a 3 us `add`.
Per-op engine cost is measured instead by two micro-timings on fixed
shapes, called directly with no tracer installed.

Scopes: spans carry the trace id "setup" or "run". Every metric covers
the run part only, except `data.*` and the phase-1 trainer metrics,
which also cover set-up (stage 1 is fitted in set-up on
stage2_sweep_bags, and data is generated in set-up everywhere).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.tracer import Target, Tracer, self_times_ns

BASELINE_KINDS = ("zero_fill_multimodal", "mean_impute_multimodal", "late_fusion_average",
                  "unimodal_0", "unimodal_1")
COMPARE_MODELS = ("setfusion_joint", "zero_fill", "mean_impute", "late_fusion",
                  "unimodal_0", "unimodal_1")

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "data.generate_ms": "ms",
    "data.apply_missingness_ms": "ms",
    "data.to_set_ms": "ms",
    "trainer.train_phase1_s": "s",
    "trainer.phase1_item_us": "us",
    "trainer.train_phase2_s": "s",
    "trainer.phase2_set_us": "us",
    "trainer.train_joint_s": "s",
    "trainer.joint_set_us": "us",
    "trainer.evaluate_sets_ms": "ms",
    "encoder.phase1_forward_us": "us",
    "encoder.phase1_forward_calls": "count",
    "encoder.phase1_loss_us": "us",
    "encoder.phi_forward_us": "us",
    "encoder.phi_forward_calls": "count",
    "encoder.pool_instances_us": "us",
    "encoder.pool_instances_calls": "count",
    "encoder.phi_forward_repeat_share": "fraction",
    "hypernet.generate_weights_us": "us",
    "hypernet.generate_weights_calls": "count",
    "tensor.backward_us": "us",
    "tensor.backward_calls": "count",
    "tensor.linear_fwd_bwd_us": "us",
    "tensor.stack_reduce_max_us": "us",
    "optim.adam_step_us": "us",
    "optim.adam_step_calls": "count",
    "optim.adam_scalars_per_step": "count",
    "setnet.phase2_loss_us": "us",
    "setnet.rho_us": "us",
    "setnet.predict_proba_us": "us",
    **{f"baselines.run_baseline_s.{k}": "s" for k in BASELINE_KINDS},
    "baselines.fill_count": "count",
    **{f"compare.run_scenario_model_s.{m}": "s" for m in COMPARE_MODELS},
    "compare.critical_task_s": "s",
    "compare.pool_idle_share": "fraction",
    "trace.overhead_s": "s",
}

SETUP_SCOPED = {"data.generate", "data.apply_missingness", "data.to_set", "trainer.train_phase1"}


def make_targets() -> list[Target]:
    """Fresh targets; the phi_forward hook keeps its own seen-set."""
    seen: set = set()
    scalars: dict = {}  # optimizer -> scalars it updates per step

    def phi_forward_hook(tracer: Tracer, span, args):
        enc, x, m = args[0], args[1], args[2]
        if not enc.frozen:
            return
        payload = np.asarray(getattr(x, "data", x))
        key = (id(enc), getattr(m, "index", m), payload.tobytes())
        if key in seen:
            tracer.count("encoder.phi_forward_repeats")
        else:
            seen.add(key)

    def adam_hook(tracer: Tracer, span, args):
        opt = args[0]
        if opt not in scalars:
            scalars[opt] = sum(p.data.size for p in opt.named_params.values())
        tracer.count("optim.adam_scalars", scalars[opt])

    def baseline_hook(tracer, span, args):
        kind = args[0]
        span.tag = f"{kind.name}_{kind.k}" if kind.name == "unimodal" else kind.name

    def task_hook(tracer, span, args):
        span.tag = args[1]

    return [
        Target("data", "generate"),
        Target("data", "apply_missingness"),
        Target("data", "to_set"),
        Target("trainer", "run_full"),
        Target("trainer", "train_phase1"),
        Target("trainer", "train_phase2"),
        Target("trainer", "train_joint"),
        Target("trainer", "evaluate_sets"),
        Target("encoder", "Encoder.phase1_forward"),
        Target("encoder", "Encoder.phi_forward", phi_forward_hook),
        Target("encoder", "Encoder.pool_instances"),
        Target("encoder", "phase1_loss"),
        Target("hypernet", "HyperNetwork.generate_weights"),
        Target("tensor", "backward"),
        Target("optim", "Adam.step", adam_hook),
        Target("setnet", "SetClassifier.rho"),
        Target("setnet", "phase2_loss"),
        Target("setnet", "predict_proba"),
        Target("baselines", "run_baseline", baseline_hook),
        Target("compare", "scenario_compare"),
        Target("compare", "run_scenario_model", task_hook),
    ]


def _median_block_us(body, iters: int, blocks: int = 9) -> float:
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(iters):
            body()
        times.append((time.perf_counter() - t0) / iters * 1e6)
    return statistics.median(times)


def micro_timings() -> dict[str, float]:
    """Engine cost on fixed shapes: a 64x32 dense layer forward and
    backward, and a max over a bag of four 16-wide latents."""
    from setfusion.rng import SeededRng
    from setfusion.tensor import Tensor, backward, linear, reduce, stack

    rng = SeededRng(("perfbench", "micro"))
    w = Tensor(rng.normal((64, 32)), requires_grad=True)
    b = Tensor(rng.normal(64), requires_grad=True)
    x = Tensor(rng.normal(32))
    latents = [Tensor(rng.normal(16)) for _ in range(4)]

    def linear_fwd_bwd():
        backward(reduce(linear(w, x, b), axis=0, kind="sum"))
        w.grad = b.grad = None

    def stack_reduce_max():
        reduce(stack(latents), axis=0, kind="max")

    return {
        "tensor.linear_fwd_bwd_us": _median_block_us(linear_fwd_bwd, 300),
        "tensor.stack_reduce_max_us": _median_block_us(stack_reduce_max, 1000),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans; workload-level entries
    (baselines.fill_count, compare.*, trace.overhead_s) are left at 0
    for the caller to fill in."""
    spans = tracer.spans
    selfs = self_times_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.trace_id == "run" or s.name in SETUP_SCOPED:
            by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_ns(name, tag=None):
        return sum(spans[i].duration_ns for i in by_name.get(name, ())
                   if tag is None or spans[i].tag == tag)

    def self_us(name):
        idx = by_name.get(name, ())
        return sum(selfs[i] for i in idx) / len(idx) / 1e3 if idx else 0.0

    # optimizer steps attributed to the trainer entry point that ran them
    steps = {"trainer.train_phase1": 0, "trainer.train_phase2": 0, "trainer.train_joint": 0}
    for s in spans:
        if s.name != "optim.step":
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in steps:
            p = spans[p].parent
        if p >= 0:
            steps[spans[p].name] += 1

    def per_step_us(name):
        n = steps[name]
        return total_ns(name) / n / 1e3 if n else 0.0

    phi_calls = calls("encoder.phi_forward")
    adam_calls = calls("optim.step")
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "data.generate_ms": total_ns("data.generate") / 1e6,
        "data.apply_missingness_ms": total_ns("data.apply_missingness") / 1e6,
        "data.to_set_ms": total_ns("data.to_set") / 1e6,
        "trainer.train_phase1_s": total_ns("trainer.train_phase1") / 1e9,
        "trainer.phase1_item_us": per_step_us("trainer.train_phase1"),
        "trainer.train_phase2_s": total_ns("trainer.train_phase2") / 1e9,
        "trainer.phase2_set_us": per_step_us("trainer.train_phase2"),
        "trainer.train_joint_s": total_ns("trainer.train_joint") / 1e9,
        "trainer.joint_set_us": per_step_us("trainer.train_joint"),
        "trainer.evaluate_sets_ms": total_ns("trainer.evaluate_sets") / 1e6,
        "encoder.phase1_forward_us": self_us("encoder.phase1_forward"),
        "encoder.phase1_forward_calls": calls("encoder.phase1_forward"),
        "encoder.phase1_loss_us": self_us("encoder.phase1_loss"),
        "encoder.phi_forward_us": self_us("encoder.phi_forward"),
        "encoder.phi_forward_calls": phi_calls,
        "encoder.pool_instances_us": self_us("encoder.pool_instances"),
        "encoder.pool_instances_calls": calls("encoder.pool_instances"),
        "encoder.phi_forward_repeat_share": (
            tracer.counters[("run", "encoder.phi_forward_repeats")] / phi_calls if phi_calls else 0.0
        ),
        "hypernet.generate_weights_us": self_us("hypernet.generate_weights"),
        "hypernet.generate_weights_calls": calls("hypernet.generate_weights"),
        "tensor.backward_us": self_us("tensor.backward"),
        "tensor.backward_calls": calls("tensor.backward"),
        "optim.adam_step_us": self_us("optim.step"),
        "optim.adam_step_calls": adam_calls,
        "optim.adam_scalars_per_step": (
            tracer.counters[("run", "optim.adam_scalars")] / adam_calls if adam_calls else 0.0
        ),
        "setnet.phase2_loss_us": self_us("setnet.phase2_loss"),
        "setnet.rho_us": self_us("setnet.rho"),
        # inclusive, so that it lines up with the end-to-end predict_us_*
        "setnet.predict_proba_us": (
            total_ns("setnet.predict_proba") / calls("setnet.predict_proba") / 1e3
            if calls("setnet.predict_proba") else 0.0
        ),
    })
    for kind in BASELINE_KINDS:
        out[f"baselines.run_baseline_s.{kind}"] = total_ns("baselines.run_baseline", kind) / 1e9
    return out
