"""Per-layer spans and metrics for the traced run.

``install`` wraps the public dwspectral names each layer calls, in the
namespace of the module that calls them: the names ``harness`` and ``cli``
imported, and the ones the benchmark's own ``workloads`` module calls. The
program itself is not changed; ``Tracer.restore`` puts the originals back.

Every ``.s`` metric is busy seconds (span durations, so they include the
wrapped calls made inside, as ``confusion`` inside ``merge_confusions``) and
every ``.calls`` metric a call count, per pass (one set-up plus one loop
iteration, see ``Tracer.per_pass``); ``self_s`` metrics exclude child
spans. ``TARGETS`` names the end-to-end metric and workload each layer
metric should move.
"""

from __future__ import annotations

import statistics

from dwspectral import cli, harness
from dwspectral.classifiers import MLP_HIDDEN, N_CLASSES, MlpModel, PolyModel

LAYERS = ("physics", "adc", "classifiers", "core_image", "metrics", "harness", "cli", "trace")
CLASSIFIERS = ("PO", "MLP", "KO", "KO-ADC")
# Multiply-adds of one 3-60-3 forward pass with biases, two flops each.
MLP_FLOP_PER_PIXEL = 2 * (MLP_HIDDEN * 4 + N_CLASSES * (MLP_HIDDEN + 1))

HARNESS_CALLS = (
    "render_phantom", "add_noise_to_stack", "adc_map", "classify",
    "train_polynomial", "train_mlp", "train_som", "label_som", "train_ko_adc",
    "extract_samples", "extract_band_samples", "save_labelmap",
    "confusion", "merge_confusions", "report_from_confusion", "volumes",
    "train_models", "kappa_curve_svg",
)
CLI_CALLS = (
    "render_phantom", "add_noise_to_stack", "adc_map",
    "save_adc_raw", "save_adc_pgm", "load_adc_raw", "classify",
    "train_polynomial", "train_mlp", "train_som", "label_som", "train_ko_adc",
    "load_model", "save_model", "load_stack", "save_stack",
    "load_labelmap", "save_labelmap", "extract_samples", "extract_band_samples",
    "metrics_report", "volumes",
    "cmd_phantom", "cmd_noise", "cmd_adc", "cmd_train", "cmd_classify", "cmd_eval",
)
BENCH_CALLS = ("render_phantom", "train_models", "run_baseline", "run_sweep", "cli_main")

CLI_SUBCOMMANDS = ("phantom", "noise", "adc", "train", "classify", "eval")

TIMED = (
    "physics.render_phantom", "physics.add_noise_to_stack",
    "adc.adc_map", "adc.save_adc_raw", "adc.save_adc_pgm", "adc.load_adc_raw",
    "classifiers.train_polynomial", "classifiers.train_mlp", "classifiers.train_som",
    "classifiers.label_som", "classifiers.train_ko_adc",
    "classifiers.load_model", "classifiers.save_model",
    *(f"classifiers.classify.{c}" for c in CLASSIFIERS),
    "core_image.extract_samples", "core_image.extract_band_samples",
    "core_image.load_stack", "core_image.save_stack",
    "core_image.load_labelmap", "core_image.save_labelmap",
    "metrics.confusion", "metrics.merge_confusions", "metrics.volumes",
    "metrics.report_from_confusion", "metrics.metrics_report",
    "harness.train_models", "harness.kappa_curve_svg",
    *(f"cli.{c}" for c in CLI_SUBCOMMANDS),
)
COUNTED = (
    "physics.add_noise_to_stack", "adc.adc_map",
    "classifiers.train_polynomial", "classifiers.train_mlp", "classifiers.train_som",
    "classifiers.label_som", "classifiers.train_ko_adc",
    *(f"classifiers.classify.{c}" for c in CLASSIFIERS),
)

# Metric-name prefix -> the end-to-end metric and workload it should move;
# the longest matching prefix applies.
TARGETS = {
    "physics.render_phantom": "setup_s on sweep, sweep-2t and cli; wall_s on baseline",
    "physics.add_noise_to_stack": "cells_per_s on sweep and sweep-2t; not baseline",
    "adc.adc_map": "cells_per_s on sweep; wall_s on cli",
    "adc.": "step_p50_ms and wall_s on cli",
    "classifiers.train_": "wall_s on baseline; setup_s on sweep and cli; not cells_per_s",
    "classifiers.label_som": "wall_s on baseline; setup_s on sweep and cli; not cells_per_s",
    "classifiers.mlp.epochs_run": "wall_s on baseline; setup_s on sweep; not cells_per_s",
    "classifiers.classify": "cells_per_s on sweep and sweep-2t; peak_rss_mb if "
    "inference is vectorised over the whole volume",
    "classifiers.load_model": "step_p50_ms on cli",
    "classifiers.save_model": "setup_s on cli",
    "core_image.": "step_p50_ms and wall_s on cli; not sweep",
    "metrics.": "cells_per_s on sweep",
    "metrics.metrics_report": "step_p50_ms on cli",
    "harness.": "cells_per_s on sweep-2t against sweep",
    "harness.train_models": "setup_s on sweep; wall_s on baseline",
    "harness.run_baseline": "wall_s on baseline",
    "cli.": "step_p50_ms and step_p90_ms on cli",
    "trace.wall_s": "none: traced minus untraced wall_s is the tracing overhead",
}


def target(metric: str) -> str | None:
    matches = [p for p in TARGETS if metric.startswith(p)]
    return TARGETS[max(matches, key=len)] if matches else None


UNITS = {  # metric-name suffix -> unit
    ".s": "s", ".self_s": "s", ".wall_s": "s", ".calls": "count",
    ".epochs_run": "count", "mb": "MB", ".mpix_per_s": "Mpx/s",
    ".computed_gflop": "GFLOP", ".parallel_eff": "fraction",
}


def unit(metric: str) -> str:
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


def span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__.removeprefix('cmd_')}"


def classify_span(model, image) -> str:
    if isinstance(model, PolyModel):
        kind = "PO"
    elif isinstance(model, MlpModel):
        kind = "MLP"
    else:
        kind = "KO-ADC" if model.feature_dim == 1 else "KO"
    return f"classifiers.classify.{kind}"


def _payload_bytes(stack) -> int:
    return 2 * sum(b.data.size for b in stack.bands)  # 16-bit PGM samples


MEASURES = {
    "classify": lambda a, kw, out: {"pixels": out.width * out.height},
    "add_noise_to_stack": lambda a, kw, out: {
        "bytes": sum(b.data.nbytes for b in out.bands)
    },
    "load_stack": lambda a, kw, out: {"bytes": _payload_bytes(out)},
    "save_stack": lambda a, kw, out: {"bytes": _payload_bytes(a[0])},
    "train_mlp": lambda a, kw, out: {"epochs": out.epochs_run, "seed": out.config.seed},
}


def install(tracer, bench_module) -> None:
    for namespace, attrs in (
        (harness, HARNESS_CALLS),
        (cli, CLI_CALLS),
        (bench_module, BENCH_CALLS),
    ):
        for attr in attrs:
            fn = getattr(namespace, attr)
            name = classify_span if fn.__name__ == "classify" else span_name(fn)
            tracer.wrap(namespace, attr, name, MEASURES.get(fn.__name__))


def metrics(tracer, threads: int) -> dict:
    def attr(key):
        return lambda i: tracer.spans[i].attrs.get(key, 0)

    def count(i):
        return 1.0

    m = {f"{name}.s": tracer.per_pass(name) for name in TIMED}
    m.update({f"{name}.calls": tracer.per_pass(name, count) for name in COUNTED})
    m["physics.add_noise_to_stack.computed_mb"] = (
        tracer.per_pass("physics.add_noise_to_stack", attr("bytes")) / 1e6
    )
    for name in ("core_image.load_stack", "core_image.save_stack"):
        m[f"{name}.mb"] = tracer.per_pass(name, attr("bytes")) / 1e6
    for c in CLASSIFIERS:
        name = f"classifiers.classify.{c}"
        busy = m[f"{name}.s"]
        pixels = tracer.per_pass(name, attr("pixels"))
        m[f"{name}.mpix_per_s"] = pixels / busy / 1e6 if busy else 0.0
        if c == "MLP":
            m[f"{name}.computed_gflop"] = pixels * MLP_FLOP_PER_PIXEL / 1e9
    epochs = [tracer.spans[i].attrs["epochs"] for i in tracer.named("classifiers.train_mlp")]
    m["classifiers.mlp.epochs_run"] = max(epochs, default=0)

    for name in ("harness.run_baseline", "harness.run_sweep"):
        m[f"{name}.self_s"] = tracer.per_pass(name, tracer.self_time)
    sweeps = tracer.named("harness.run_sweep")
    wall = sum(tracer.spans[i].duration for i in sweeps) * threads
    busy = sum(
        tracer.spans[c].duration for i in sweeps for c in tracer.child_indices(i)
    )
    m["harness.run_sweep.parallel_eff"] = busy / wall if wall else 0.0
    m["cli.self_s"] = tracer.per_pass(
        ("cli.main", *(f"cli.{c}" for c in CLI_SUBCOMMANDS)), tracer.self_time
    )
    walls = [s.duration for s in tracer.roots("iteration")][1:]  # after the warm-up
    m["trace.wall_s"] = statistics.fmean(walls) if walls else 0.0
    return dict(sorted(m.items(), key=lambda kv: (LAYERS.index(kv[0].split(".")[0]), kv[0])))


def mlp_epochs_by_seed(tracer) -> dict:
    """MLP seed -> epochs run, from every MLP training the run traced."""
    return {
        tracer.spans[i].attrs["seed"]: tracer.spans[i].attrs["epochs"]
        for i in tracer.named("classifiers.train_mlp")
    }


def cell_shares(tracer) -> dict:
    """Share of the sweep's cell work (the spans ``run_sweep`` hands out,
    except the SVG chart) taken by each classifier's classify, noise, ADC
    and scoring; ``merge_confusions`` includes the ``confusion`` calls its
    generator argument makes."""
    groups = {
        **{f"classify {c}": (f"classifiers.classify.{c}",) for c in CLASSIFIERS},
        "noise": ("physics.add_noise_to_stack",),
        "adc": ("adc.adc_map",),
        "scoring": (
            "metrics.merge_confusions", "metrics.report_from_confusion", "metrics.volumes",
        ),
    }
    busy: dict[str, float] = {}
    for i in tracer.named("harness.run_sweep"):
        for c in tracer.child_indices(i):
            span = tracer.spans[c]
            busy[span.name] = busy.get(span.name, 0.0) + span.duration
    busy.pop("harness.kappa_curve_svg", None)
    cell_work = sum(busy.values())
    if not cell_work:
        return {}
    shares = {
        group: sum(busy.get(n, 0.0) for n in names) / cell_work
        for group, names in groups.items()
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares
