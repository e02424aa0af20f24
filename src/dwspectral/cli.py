"""Command-line pipeline: phantom | noise | adc | train | classify | eval |
baseline | sweep. Each stage reads and writes plain files so every step of
the pipeline is independently inspectable."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .adc import AdcConfig, adc_map, load_adc_raw, save_adc_pgm, save_adc_raw
from .classifiers import (
    MlpConfig,
    SomConfig,
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
from .errors import ContractError, PipelineError, ValidationError
from .harness import (
    ExperimentConfig,
    load_experiment_config,
    run_baseline,
    run_sweep,
)
from .metrics import metrics_report, volumes
from .physics import (
    AcquisitionParams,
    add_noise_to_stack,
    default_phantom_spec,
    load_phantom_spec,
    render_phantom,
)


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_run_record(args, inputs, out_dir=None, out_file=None) -> None:
    record = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "flags": {
            k: str(v)
            for k, v in sorted(vars(args).items())
            if k not in ("func", "command") and v is not None
        },
        "input_digests": {str(p): _sha256(p) for p in inputs if Path(p).is_file()},
    }
    if out_dir is not None:
        target = Path(out_dir) / "run.json"
    else:
        out_file = Path(out_file)
        target = out_file.parent / (out_file.name + ".run.json")
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _load_acq(path) -> AcquisitionParams:
    if path is None:
        return AcquisitionParams()
    return config_from_json(AcquisitionParams, read_json(Path(path)), path)


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Subcommands

def cmd_phantom(args) -> None:
    inputs = []
    if args.spec:
        spec = load_phantom_spec(_require_file(args.spec, "phantom spec"))
        inputs.append(args.spec)
    else:
        spec = default_phantom_spec()
    if args.acq:
        _require_file(args.acq, "acquisition file")
        inputs.append(args.acq)
    acq = _load_acq(args.acq)
    stacks, truth = render_phantom(spec, acq)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for s, (stack, lm) in enumerate(zip(stacks, truth)):
        save_stack(stack, out, prefix=f"slice_{s:02d}")
        save_labelmap(lm, out / f"truth_{s:02d}.pgm")
    _write_run_record(args, inputs, out_dir=out)


def cmd_noise(args) -> None:
    stack = load_stack(_require_file(args.stack, "stack manifest"))
    noisy = add_noise_to_stack(stack, args.xi, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_stack(noisy, out, prefix="noisy")
    _write_run_record(args, [args.stack], out_dir=out)


def cmd_adc(args) -> None:
    stack = load_stack(_require_file(args.stack, "stack manifest"))
    cfg = AdcConfig(
        c_const=args.c, normalize_by_terms=args.normalize, epsilon=args.epsilon
    )
    band = adc_map(stack, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_adc_raw(band, out.with_suffix(".adc"))
    save_adc_pgm(band, out.with_suffix(".pgm"))
    _write_run_record(args, [args.stack], out_file=out.with_suffix(".adc"))


def cmd_train(args) -> None:
    labels = load_labelmap(_require_file(args.labels, "label map"))
    inputs = [args.labels]
    if args.method == "ko-adc":
        if args.adc:
            band = load_adc_raw(_require_file(args.adc, "raw ADC file"))
            inputs.append(args.adc)
        elif args.stack:
            stack = load_stack(_require_file(args.stack, "stack manifest"))
            band = adc_map(stack, AdcConfig())
            inputs.append(args.stack)
        else:
            raise ValidationError("ko-adc training needs --adc or --stack")
        samples = extract_band_samples(band, labels)
        model = train_ko_adc(samples, SomConfig(seed=args.seed))
    else:
        if not args.stack:
            raise ValidationError(f"{args.method} training needs --stack")
        stack = load_stack(_require_file(args.stack, "stack manifest"))
        inputs.append(args.stack)
        samples = extract_samples(stack, labels)
        if args.method == "po":
            model = train_polynomial(samples)
        elif args.method == "mlp":
            model = train_mlp(samples, MlpConfig(seed=args.seed))
        else:  # ko
            model = label_som(train_som(samples, SomConfig(seed=args.seed)), samples)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_run_record(args, inputs, out_file=out)


def cmd_classify(args) -> None:
    model = load_model(_require_file(args.model, "model file"))
    inputs = [args.model]
    if args.stack:
        image = load_stack(_require_file(args.stack, "stack manifest"))
        inputs.append(args.stack)
    elif args.adc:
        image = load_adc_raw(_require_file(args.adc, "raw ADC file"))
        inputs.append(args.adc)
    else:
        raise ValidationError("classify needs --stack or --adc")
    labelmap = classify(model, image)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_labelmap(labelmap, out)
    _write_run_record(args, inputs, out_file=out)


def cmd_eval(args) -> None:
    pred = load_labelmap(_require_file(args.pred, "prediction map"))
    truth = load_labelmap(_require_file(args.truth, "truth map"))
    report = metrics_report(pred, truth)
    volume = volumes([pred])
    doc = {"metrics": report.to_json(), "volumes": volume.to_json()}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_run_record(args, [args.pred, args.truth], out_file=out)


def _experiment_config(args) -> tuple[ExperimentConfig, list]:
    if args.config:
        return load_experiment_config(_require_file(args.config, "config file")), [
            args.config
        ]
    return ExperimentConfig(), []


def cmd_baseline(args) -> None:
    cfg, inputs = _experiment_config(args)
    out = Path(args.out)
    run_baseline(cfg, out_dir=out)
    _write_run_record(args, inputs, out_dir=out)


def cmd_sweep(args) -> None:
    cfg, inputs = _experiment_config(args)
    out = Path(args.out)
    run_sweep(cfg, out_dir=out)
    _write_run_record(args, inputs, out_dir=out)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwspectral",
        description="Diffusion-weighted MR phantom synthesis, ADC maps, "
        "multispectral classification and noise-robustness sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.set_defaults(func=func)
        return p

    p = add("phantom", cmd_phantom, "render a synthetic labeled DW-MR volume")
    p.add_argument("--spec", help="phantom spec JSON (default: built-in head)")
    p.add_argument("--acq", help="acquisition params JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = add("noise", cmd_noise, "add seeded Gaussian noise to a stack")
    p.add_argument("--stack", required=True, help="stack manifest JSON")
    p.add_argument("--xi", type=float, required=True, help="sigma as fraction of full scale")
    p.add_argument("--out", required=True, help="output directory")

    p = add("adc", cmd_adc, "compute the ADC map of a stack")
    p.add_argument("--stack", required=True, help="stack manifest JSON")
    p.add_argument("--c", type=float, default=1.0, help="proportionality constant")
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="divide by the number of log-ratio terms",
    )
    p.add_argument("--epsilon", type=float, default=1.0, help="signal floor")
    p.add_argument("--out", required=True, help="output base path (.adc/.pgm)")

    p = add("train", cmd_train, "train a classifier on a labeled image")
    p.add_argument("--method", required=True, choices=("po", "mlp", "ko", "ko-adc"))
    p.add_argument("--stack", help="stack manifest JSON")
    p.add_argument("--adc", help="raw ADC file (ko-adc)")
    p.add_argument("--labels", required=True, help="truth label map PGM")
    p.add_argument("--out", required=True, help="output model JSON")

    p = add("classify", cmd_classify, "classify a stack or ADC map")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--stack", help="stack manifest JSON")
    p.add_argument("--adc", help="raw ADC file")
    p.add_argument("--out", required=True, help="output label map PGM")

    p = add("eval", cmd_eval, "score a prediction against a truth map")
    p.add_argument("--pred", required=True, help="predicted label map PGM")
    p.add_argument("--truth", required=True, help="truth label map PGM")
    p.add_argument("--out", required=True, help="output report JSON")

    p = add("baseline", cmd_baseline, "noiseless end-to-end experiment")
    p.add_argument("--config", help="experiment config JSON (default config otherwise)")
    p.add_argument("--out", required=True, help="output directory")

    p = add("sweep", cmd_sweep, "noise-robustness sweep")
    p.add_argument("--config", help="experiment config JSON (default config otherwise)")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
