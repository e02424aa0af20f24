"""Command-line pipeline: phantom | noise | adc | train | classify | eval |
baseline | sweep. Each stage reads and writes plain files so every step of
the pipeline is independently inspectable."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
# Imports every name of perfbench/layers.py CLI_CALLS, called here or not: the tracer wraps them.
from .adc import AdcConfig, adc_map, load_adc_raw, save_adc_pgm, save_adc_raw
from .classifiers import (
    classify,
    label_som,
    load_model,
    save_model,
    train_ko_adc,
    train_mlp,
    train_polynomial,
    train_som,
)
from .core_image import (
    config_from_json,
    extract_band_samples,
    extract_samples,
    load_labelmap,
    load_stack,
    read_json,
    save_labelmap,
    save_stack,
)
from .errors import PipelineError, ValidationError
from .harness import (
    CLASSIFIERS,
    ExperimentConfig,
    load_experiment_config,
    run_baseline,
    run_sweep,
    training_samples,
)
from .metrics import metrics_report, volumes
from .physics import (
    AcquisitionParams,
    add_noise_to_stack,
    default_phantom_spec,
    load_phantom_spec,
    render_phantom,
)


# Flags that name an input file; the run record holds the digest of each given.
INPUT_FLAGS = (
    "spec", "acq", "config", "stack", "adc", "labels", "model", "pred", "truth",
)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@functools.cache
def _build_info() -> dict:
    """The Python and numpy that run the command, read once per process.
    The BLAS comes from ``np.show_config(mode="dicts")``, which numpy has
    from 1.26 on, and the SIMD dispatch targets enabled on this CPU from
    numpy's private ``_multiarray_umath``; either is null where it cannot
    be read."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy < 1.26 has no ``mode``
        blas = None
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    except (ImportError, AttributeError, TypeError):
        simd = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "simd_dispatch": simd}


def _write_run_record(args, target: Path) -> None:
    inputs = [getattr(args, f) for f in INPUT_FLAGS if getattr(args, f, None)]
    record = _build_info() | {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "flags": {
            k: str(v)
            for k, v in sorted(vars(args).items())
            if k != "command" and v is not None
        },
        "input_digests": {p: _sha256(p) for p in inputs if Path(p).is_file()},
    }
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _record_beside(out_file: Path) -> Path:
    return out_file.with_name(out_file.name + ".run.json")


# ---------------------------------------------------------------------------
# Subcommands; each returns the path of its run record.

def cmd_phantom(args) -> Path:
    spec = load_phantom_spec(args.spec) if args.spec else default_phantom_spec()
    acq = AcquisitionParams()
    if args.acq:
        acq = read_json(
            args.acq, lambda doc: config_from_json(AcquisitionParams, doc, "acquisition")
        )
    stacks, truth = render_phantom(spec, acq)
    out = Path(args.out)
    for s, (stack, lm) in enumerate(zip(stacks, truth)):
        save_stack(stack, out, prefix=f"slice_{s:02d}")
        save_labelmap(lm, out / f"truth_{s:02d}.pgm")
    return out / "run.json"


def cmd_noise(args) -> Path:
    noisy = add_noise_to_stack(load_stack(args.stack), args.xi, args.seed)
    save_stack(noisy, args.out, prefix="noisy")
    return Path(args.out) / "run.json"


def cmd_adc(args) -> Path:
    cfg = AdcConfig(
        c_const=args.c, normalize_by_terms=args.normalize, epsilon=args.epsilon
    )
    out = Path(args.out)
    if out.name in ("", ".."):
        raise ValidationError(f"--out must name a file, got {args.out!r}")
    band = adc_map(load_stack(args.stack), cfg)
    # The PGM first: it checks its scale before either file is written.
    save_adc_pgm(band, out.with_suffix(".pgm"))
    save_adc_raw(band, out.with_suffix(".adc"))
    return _record_beside(out.with_suffix(".adc"))


def _stack_or_adc(args, need: str):
    """The image of the one of --stack and --adc given; ``need`` is the
    error when neither is. Both at once is refused: one would be ignored."""
    if args.stack and args.adc:
        raise ValidationError(f"{need}, not both")
    if args.stack:
        return load_stack(args.stack)
    if args.adc:
        return load_adc_raw(args.adc)
    raise ValidationError(need)


def cmd_train(args) -> Path:
    input, train = CLASSIFIERS[args.method.upper()]
    if input == "stack" and args.adc:
        raise ValidationError(f"{args.method} training needs --stack, not --adc")
    need = "--adc or --stack" if input == "adc" else "--stack"
    image = _stack_or_adc(args, f"{args.method} training needs {need}")
    samples = training_samples(input, image, load_labelmap(args.labels), AdcConfig())
    save_model(train(samples, (args.seed,))[args.seed], args.out)
    return _record_beside(Path(args.out))


def cmd_classify(args) -> Path:
    model = load_model(args.model)
    image = _stack_or_adc(args, "classify needs --stack or --adc")
    save_labelmap(classify(model, image), args.out)
    return _record_beside(Path(args.out))


def cmd_eval(args) -> Path:
    pred = load_labelmap(args.pred)
    report = metrics_report(pred, load_labelmap(args.truth))
    doc = {"metrics": report.to_json(), "volumes": volumes(report.matrix).to_json()}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return _record_beside(Path(args.out))


def _experiment_config(args) -> ExperimentConfig:
    return load_experiment_config(args.config) if args.config else ExperimentConfig()


def cmd_baseline(args) -> Path:
    run_baseline(_experiment_config(args), out_dir=args.out)
    return Path(args.out) / "run.json"


def cmd_sweep(args) -> Path:
    run_sweep(_experiment_config(args), out_dir=args.out)
    return Path(args.out) / "run.json"


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``main`` runs the
    ``cmd_<command>`` that the module holds when it is called."""
    parser = argparse.ArgumentParser(
        prog="dwspectral",
        description="Diffusion-weighted MR phantom synthesis, ADC maps, "
        "multispectral classification and noise-robustness sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser

    p = add("phantom", help="render a synthetic labeled DW-MR volume")
    p.add_argument("--spec", help="phantom spec JSON (default: built-in head)")
    p.add_argument("--acq", help="acquisition params JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = add("noise", help="add seeded Gaussian noise to a stack")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--stack", required=True, help="stack manifest JSON")
    p.add_argument("--xi", type=float, required=True, help="sigma as fraction of full scale")
    p.add_argument("--out", required=True, help="output directory")

    p = add("adc", help="compute the ADC map of a stack")
    p.add_argument("--stack", required=True, help="stack manifest JSON")
    p.add_argument("--c", type=float, default=AdcConfig.c_const, help="proportionality constant")
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=AdcConfig.normalize_by_terms,
        help="divide by the number of log-ratio terms",
    )
    p.add_argument("--epsilon", type=float, default=AdcConfig.epsilon, help="signal floor")
    p.add_argument("--out", required=True, help="output base path (.adc/.pgm)")

    p = add("train", help="train a classifier on a labeled image")
    p.add_argument("--seed", type=int, default=0, help="MLP/SOM training seed")
    p.add_argument("--method", required=True, choices=[c.lower() for c in CLASSIFIERS])
    p.add_argument("--stack", help="stack manifest JSON")
    p.add_argument("--adc", help="raw ADC file (ko-adc)")
    p.add_argument("--labels", required=True, help="truth label map PGM")
    p.add_argument("--out", required=True, help="output model JSON")

    p = add("classify", help="classify a stack or ADC map")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--stack", help="stack manifest JSON")
    p.add_argument("--adc", help="raw ADC file")
    p.add_argument("--out", required=True, help="output label map PGM")

    p = add("eval", help="score a prediction against a truth map")
    p.add_argument("--pred", required=True, help="predicted label map PGM")
    p.add_argument("--truth", required=True, help="truth label map PGM")
    p.add_argument("--out", required=True, help="output report JSON")

    p = add("baseline", help="noiseless end-to-end experiment")
    p.add_argument("--config", help="experiment config JSON (default config otherwise)")
    p.add_argument("--out", required=True, help="output directory")

    p = add("sweep", help="noise-robustness sweep")
    p.add_argument("--config", help="experiment config JSON (default config otherwise)")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Read at each call, so that a cmd_* replaced on the module is the one run.
    command = {
        "phantom": cmd_phantom, "noise": cmd_noise, "adc": cmd_adc,
        "train": cmd_train, "classify": cmd_classify, "eval": cmd_eval,
        "baseline": cmd_baseline, "sweep": cmd_sweep,
    }[args.command]
    try:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_run_record(args, command(args))
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
