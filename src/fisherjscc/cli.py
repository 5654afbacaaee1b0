"""Command-line entry point: reproducible data generation, training, evaluation.

Runs are described by a plain-text INI config with sections [run], [data],
[model], [channel], [train], [experiment]. Parsing is strict: any unknown
section or key fails before any computation, because a silently ignored
setting would invalidate comparisons between runs. Every command writes a
manifest capturing the resolved config, the seeds, and content digests of
its inputs and outputs, sufficient to re-run the experiment exactly.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__, experiments
from .channel import FAMILIES, psnr_to_sigma2
from .data import DataError, Dataset, Normalizer, load_table, make_blobs, make_rings, save_table
from .models import DecoderModel, EncoderModel, load_checkpoint, save_checkpoint
from .rng import derive_seed
from .train import (FixedPsnr, TrainConfig, TrainDivergenceError, UniformPsnr, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

logger = logging.getLogger("fisherjscc")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Strict config schema: section -> key -> (parser, default). Required keys
# use the _REQUIRED sentinel.

_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _choice(options, fold_case: bool = False):
    """Parser accepting only the listed values (lower-cased first if fold_case)."""
    def parse(text: str) -> str:
        value = text.lower() if fold_case else text
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return value
    return parse


_SCHEMA = {
    "run": {
        "seed": (int, 0),
        "out": (str, _REQUIRED),
    },
    "data": {
        "kind": (_choice(("rings", "blobs", "table")), "rings"),
        "classes": (int, 3),
        "per_class_train": (int, 200),
        "per_class_test": (int, 200),
        "dim": (int, 2),                        # blobs only
        "spread": (float, 0.15),                # blob spread / ring radial noise
        "normalize": (_parse_bool, True),
        "dir": (str, ""),                       # where gen-data wrote its files
        "train_file": (str, ""),                # table kind only
        "test_file": (str, ""),
        "delimiter": (str, ","),
        "has_header": (_parse_bool, False),
    },
    "model": {
        "repr_dim": (int, 8),
        "power": (float, 1.0),
        "encoder_hidden": (_parse_int_list, [64, 64]),
        "decoder_hidden": (_parse_int_list, [64]),
    },
    "channel": {
        "family": (_choice(FAMILIES, fold_case=True), "awgn"),
        "psnr_db": (float, 20.0),
    },
    "train": {
        "lambda": (float, 0.0),
        "noise_draws": (int, 4),
        "epochs": (int, 100),
        "batch_size": (int, 64),
        "learning_rate": (float, 1e-3),
        "psnr_mode": (_choice(("fixed", "uniform")), "fixed"),
        "psnr_low": (float, 10.0),
        "psnr_high": (float, 25.0),
        "omit_sigma2": (_parse_bool, False),
        "checkpoint_every": (int, 0),
    },
    "experiment": {
        "kind": (_choice(("sweep", "taylor", "reg-track", "posterior-map")), "sweep"),
        "checkpoint": (str, ""),
        "checkpoint_a": (str, ""),
        "checkpoint_b": (str, ""),
        "psnr_grid": (_parse_float_list, [5.0, 10.0, 15.0, 20.0, 25.0]),
        "trials": (int, 20),
        "mc_samples": (int, 10000),
        "taylor_psnr_grid": (_parse_float_list, [25.0, 20.0, 15.0, 10.0]),
        "sample_limit": (int, 256),
        "resolution": (int, 33),
        "extent_std": (float, 3.0),
        "sample_index": (int, 0),
    },
}


def load_config(path) -> dict:
    """Parse and validate an INI config; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    resolved: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section, keys in _SCHEMA.items():
        resolved[section] = {}
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    resolved[section][key] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            else:
                resolved[section][key] = default
    return resolved


# ---------------------------------------------------------------------------
# Manifests and file digests.


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    inputs: dict[str, str], outputs: dict[str, str]) -> None:
    doc = {
        "tool": "fisherjscc",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "input_digests": inputs,
        "output_digests": outputs,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_out(out: str, force: bool) -> Path:
    """The output directory, refused up front if it holds files and force is off.

    Commands create it only once they have something to write.
    """
    out_dir = Path(out)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty; pass --force to overwrite")
    return out_dir


# ---------------------------------------------------------------------------
# Dataset plumbing shared by commands.


def _generate_datasets(config: dict, seed: int) -> tuple[Dataset, Dataset]:
    section = config["data"]
    kind = section["kind"]
    data_seed = derive_seed(seed, "data")
    if kind == "rings":
        train_set = make_rings(section["classes"], section["per_class_train"],
                               section["spread"], data_seed, split="train")
        test_set = make_rings(section["classes"], section["per_class_test"],
                              section["spread"], data_seed, split="test")
    elif kind == "blobs":
        train_set = make_blobs(section["classes"], section["per_class_train"],
                               section["dim"], section["spread"], data_seed, split="train")
        test_set = make_blobs(section["classes"], section["per_class_test"],
                              section["dim"], section["spread"], data_seed, split="test")
    else:  # table
        if not section["train_file"] or not section["test_file"]:
            raise ConfigError("[data] kind=table requires train_file and test_file")
        train_set = load_table(section["train_file"], delimiter=section["delimiter"],
                               has_header=section["has_header"], split="train")
        test_set = load_table(section["test_file"], delimiter=section["delimiter"],
                              has_header=section["has_header"],
                              label_map={n: i for i, n in enumerate(train_set.label_names)},
                              split="test")
    return train_set, test_set


def _load_datasets_from_dir(config: dict) -> tuple[Dataset, Dataset, Normalizer | None]:
    data_dir = config["data"]["dir"]
    if not data_dir:
        raise ConfigError("[data] dir must point at a gen-data output directory")
    train_path = Path(data_dir) / "train.csv"
    test_path = Path(data_dir) / "test.csv"
    for path in (train_path, test_path):
        if not path.exists():
            raise DataError(f"dataset file missing: {path}")
    train_set = load_table(train_path, split="train")
    test_set = load_table(
        test_path, label_map={n: i for i, n in enumerate(train_set.label_names)},
        split="test")
    normalizer = None
    if config["data"]["normalize"]:
        normalizer = Normalizer.fit(train_set)
        train_set = normalizer.apply(train_set)
        test_set = normalizer.apply(test_set)
    return train_set, test_set, normalizer


def _build_models(config: dict, input_dim: int, num_classes: int, seed: int):
    model = config["model"]
    encoder = EncoderModel(input_dim, model["repr_dim"], model["power"],
                           hidden=model["encoder_hidden"], seed=derive_seed(seed, "encoder"))
    decoder = DecoderModel(model["repr_dim"], num_classes,
                           hidden=model["decoder_hidden"], seed=derive_seed(seed, "decoder"))
    return encoder, decoder


def _load_checkpoint_checked(path, config: dict):
    if not path:
        raise ConfigError("[experiment] checkpoint path is required")
    if not Path(path).exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        encoder, decoder, normalizer_doc, meta = load_checkpoint(path)
    except (ValueError, KeyError) as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from exc
    model = config["model"]
    declared = {
        "repr_dim": model["repr_dim"],
        "power": model["power"],
        "encoder_hidden": list(model["encoder_hidden"]),
        "decoder_hidden": list(model["decoder_hidden"]),
    }
    actual = {
        "repr_dim": encoder.repr_dim,
        "power": encoder.power,
        "encoder_hidden": list(encoder.sizes[1:-1]),
        "decoder_hidden": list(decoder.sizes[1:-1]),
    }
    diffs = {key: (declared[key], actual[key])
             for key in declared if declared[key] != actual[key]}
    if diffs:
        detail = ", ".join(f"{k}: config={c!r} checkpoint={a!r}" for k, (c, a) in diffs.items())
        raise ConfigError(f"checkpoint architecture does not match [model] config: {detail}")
    normalizer = Normalizer.from_dict(normalizer_doc) if normalizer_doc else None
    return encoder, decoder, normalizer, meta


# ---------------------------------------------------------------------------
# Commands.


def cmd_gen_data(config: dict, seed: int, force: bool, verify: bool) -> int:
    out_dir = Path(config["run"]["out"])
    manifest_path = out_dir / "manifest.json"
    if verify:
        if not manifest_path.exists():
            raise DataError(f"no manifest to verify at {manifest_path}")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for name, digest in manifest["output_digests"].items():
            path = out_dir / name
            if not path.exists():
                raise DataError(f"verify failed: {name} is missing")
            actual = _sha256(path)
            if actual != digest:
                raise DataError(f"verify failed: {name} digest {actual} != manifest {digest}")
        print(f"verified {len(manifest['output_digests'])} files against {manifest_path}")
        return EXIT_OK

    out_dir = _check_out(config["run"]["out"], force)
    train_set, test_set = _generate_datasets(config, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_table(train_set, out_dir / "train.csv")
    save_table(test_set, out_dir / "test.csv")
    outputs = {name: _sha256(out_dir / name) for name in ("train.csv", "test.csv")}
    _write_manifest(out_dir, "gen-data", config, seed, inputs={}, outputs=outputs)
    print(f"wrote {len(train_set)} train rows and {len(test_set)} test rows to {out_dir}")
    return EXIT_OK


def _train_config_from(config: dict, seed: int) -> TrainConfig:
    section = config["train"]
    try:
        if section["psnr_mode"] == "fixed":
            psnr = FixedPsnr(config["channel"]["psnr_db"])
        else:
            psnr = UniformPsnr(section["psnr_low"], section["psnr_high"])
        return TrainConfig(
            lam=section["lambda"], noise_draws=section["noise_draws"],
            epochs=section["epochs"], batch_size=section["batch_size"],
            learning_rate=section["learning_rate"], seed=derive_seed(seed, "train"),
            psnr=psnr, family=config["channel"]["family"],
            omit_sigma2=section["omit_sigma2"],
        )
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from exc


def cmd_train(config: dict, seed: int, force: bool) -> int:
    train_config = _train_config_from(config, seed)
    train_set, _, normalizer = _load_datasets_from_dir(config)
    out_dir = _check_out(config["run"]["out"], force)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoder, decoder = _build_models(config, train_set.dim, train_set.num_classes, seed)
    checkpoint_every = config["train"]["checkpoint_every"] or None
    try:
        _, _, log = train(train_config, train_set, encoder, decoder,
                          checkpoint_dir=out_dir, checkpoint_every=checkpoint_every)
    except TrainDivergenceError as exc:
        with open(out_dir / "divergence.json", "w", encoding="utf-8") as fh:
            json.dump(exc.snapshot, fh, indent=1)
            fh.write("\n")
        logger.error("training diverged: %s", exc.snapshot)
        raise
    checkpoint_path = out_dir / "checkpoint.json"
    save_checkpoint(checkpoint_path, encoder, decoder,
                    normalizer=normalizer.to_dict() if normalizer else None,
                    meta={"seed": seed, "epochs": train_config.epochs})
    log_path = out_dir / "trainlog.csv"
    log.to_csv(log_path)
    data_dir = Path(config["data"]["dir"])
    inputs = {name: _sha256(data_dir / name) for name in ("train.csv", "test.csv")
              if (data_dir / name).exists()}
    outputs = {p.name: _sha256(p) for p in (checkpoint_path, log_path)}
    _write_manifest(out_dir, "train", config, seed, inputs=inputs, outputs=outputs)
    if log.rows:
        print(f"trained {train_config.epochs} epochs; "
              f"final accuracy {log.rows[-1].accuracy:.4f}; checkpoint at {checkpoint_path}")
    else:
        print(f"0 epochs requested; wrote the initialized checkpoint to {checkpoint_path}")
    return EXIT_OK


def _experiment_dataset(config: dict):
    _, test_set, normalizer = _load_datasets_from_dir(config)
    return test_set, normalizer


def cmd_eval(config: dict, seed: int, force: bool, kind_override: str | None = None,
             threads: int = 1) -> int:
    section = config["experiment"]
    kind = kind_override or section["kind"]
    family = config["channel"]["family"]
    if kind == "taylor" and family != "awgn":
        raise ConfigError(f"the taylor experiment supports [channel] family = awgn only, "
                          f"got {family!r}: the unconditional fading KL has no finite "
                          f"penalty to compare with")
    encoder, decoder, _, _ = _load_checkpoint_checked(section["checkpoint"], config)
    test_set, _ = _experiment_dataset(config)
    out_dir = _check_out(config["run"]["out"], force)
    eval_seed = derive_seed(seed, "eval")

    try:
        if kind == "sweep":
            result = experiments.error_sweep(encoder, decoder, test_set, section["psnr_grid"],
                                             family, section["trials"], eval_seed,
                                             threads=threads)
            name, write = "sweep.csv", experiments.write_sweep_csv
        elif kind == "taylor":
            if section["sample_limit"] < 1:
                raise ValueError("sample_limit must be >= 1")
            limit = min(section["sample_limit"], len(test_set))
            sigma2_grid = [psnr_to_sigma2(p, encoder.power)
                           for p in section["taylor_psnr_grid"]]
            result = experiments.taylor_validation(encoder, decoder,
                                                   test_set.features[:limit], sigma2_grid,
                                                   section["mc_samples"], eval_seed)
            name, write = "taylor.csv", experiments.write_taylor_csv
        elif kind == "reg-track":
            result = experiments.regularizer_track([("model", encoder, decoder)],
                                                   section["psnr_grid"], test_set)
            name, write = "regtrack.csv", experiments.write_regtrack_csv
        else:  # posterior-map
            sigma2 = psnr_to_sigma2(config["channel"]["psnr_db"], encoder.power)
            result = experiments.posterior_grid(encoder, decoder, test_set,
                                                section["sample_index"], section["resolution"],
                                                section["extent_std"], sigma2)
            name, write = "posterior.csv", experiments.write_posterior_csv
    except ValueError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write(result, path)
    inputs = {Path(section["checkpoint"]).name: _sha256(section["checkpoint"])}
    _write_manifest(out_dir, f"eval:{kind}", config, seed,
                    inputs=inputs, outputs={name: _sha256(path)})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(config: dict, seed: int, force: bool, threads: int = 1) -> int:
    section = config["experiment"]
    encoder_a, decoder_a, _, _ = _load_checkpoint_checked(section["checkpoint_a"], config)
    encoder_b, decoder_b, _, _ = _load_checkpoint_checked(section["checkpoint_b"], config)
    test_set, _ = _experiment_dataset(config)
    out_dir = _check_out(config["run"]["out"], force)
    try:
        rows = experiments.paired_compare(encoder_a, decoder_a, encoder_b, decoder_b,
                                          test_set, section["psnr_grid"],
                                          config["channel"]["family"],
                                          section["trials"], derive_seed(seed, "compare"),
                                          threads=threads)
    except ValueError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "compare.csv"
    experiments.write_compare_csv(rows, path)
    negative = sum(1 for r in rows if r["delta"] < 0)
    positive = sum(1 for r in rows if r["delta"] > 0)
    ties = len(rows) - negative - positive
    inputs = {Path(p).name: _sha256(p)
              for p in (section["checkpoint_a"], section["checkpoint_b"])}
    _write_manifest(out_dir, "compare", config, seed,
                    inputs=inputs, outputs={path.name: _sha256(path)})
    print(f"wrote {path}; sign summary: a better at {negative}, "
          f"b better at {positive}, ties {ties} of {len(rows)} PSNRs")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherjscc",
        description="Fisher-regularized joint source-channel coding experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads; 1 (default) guarantees determinism")

    p = sub.add_parser("gen-data", help="generate dataset files and a manifest")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="verify existing files against the manifest digests")
    common(sub.add_parser("train", help="train a model pair, write checkpoint + log"))
    common(sub.add_parser("eval", help="run the experiment configured in [experiment]"))
    common(sub.add_parser("compare", help="paired sweep of two checkpoints"))
    common(sub.add_parser("validate-approx", help="alias for eval with kind=taylor"))
    common(sub.add_parser("posterior-map", help="alias for eval with kind=posterior-map"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("FISHERJSCC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["run"]["seed"] = args.seed
        if args.out is not None:
            config["run"]["out"] = args.out
        seed = config["run"]["seed"]
        if args.command == "gen-data":
            return cmd_gen_data(config, seed, args.force, args.verify)
        if args.command == "train":
            return cmd_train(config, seed, args.force)
        if args.command == "eval":
            return cmd_eval(config, seed, args.force, threads=args.threads)
        if args.command == "compare":
            return cmd_compare(config, seed, args.force, threads=args.threads)
        if args.command == "validate-approx":
            return cmd_eval(config, seed, args.force, kind_override="taylor")
        if args.command == "posterior-map":
            return cmd_eval(config, seed, args.force, kind_override="posterior-map")
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
