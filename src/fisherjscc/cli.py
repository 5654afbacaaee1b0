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
import copy
import hashlib
import json
import logging
import math
import os
import platform
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, experiments
from .channel import FAMILIES, psnr_to_sigma2
from .data import (DataError, Dataset, Normalizer, load_table, make_blobs, make_rings,
                   save_table, write_csv)
from .experiments import (COMPARE_SCHEMA, POSTERIOR_HEADER, POSTERIOR_SCHEMA, REGTRACK_HEADER,
                          REGTRACK_SCHEMA, SWEEP_SCHEMA, TAYLOR_SCHEMA, CompareRow, SweepRow,
                          TaylorRow)
from .models import DecoderModel, EncoderModel, load_checkpoint, save_checkpoint
from .rng import derive_seed
from .train import (TRAINLOG_HEADER, TRAINLOG_SCHEMA, FixedPsnr, TrainConfig,
                    TrainDivergenceError, UniformPsnr, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Floats one array of a run may hold; 2^27 float64 values are 1 GiB. A training step's
# noise, noisy copies of z and decoder activations are noise_draws x batch_size rows of
# one of repr_dim, the decoder's hidden widths and the classes; a posterior map decodes
# resolution^2 points; a generated split is classes x per_class rows of its features.
# trials and mc_samples have no bound: a sweep holds one block of
# experiments.SWEEP_BLOCK_ROWS noisy rows at a time, a taylor cell one block of
# robustness.KL_CHUNK_ROWS draws and per-point moments, and their time is linear in them.
FLOAT_BUDGET = 2**27

logger = logging.getLogger("fisherjscc")


class ConfigError(Exception):
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


def _int_at_least(low: int):
    """Parser accepting only integers >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"expected an integer >= {low}")
        return value
    return parse


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse_psnr(text: str) -> float:
    """A PSNR in dB; inf is the noise-free channel, NaN and -inf are refused."""
    value = float(text)
    if math.isnan(value) or value == -math.inf:
        raise ValueError("expected a number or inf (the noise-free channel)")
    return value


def _parse_psnr_list(text: str) -> list[float]:
    """A comma-separated PSNR grid of at least one value: an empty grid has no rows to write."""
    grid = [_parse_psnr(part) for part in text.split(",") if part.strip()]
    if not grid:
        raise ValueError("expected at least one PSNR")
    return grid


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _one_character(text: str) -> str:
    """One character, or `tab` for the tab, which configparser strips from a value."""
    if text == "tab":
        return "\t"
    if len(text) != 1:
        raise ValueError("expected exactly one character")
    return text


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
        "classes": (_int_at_least(2), 3),
        "per_class_train": (_int_at_least(1), 200),
        "per_class_test": (_int_at_least(1), 200),
        "dim": (_int_at_least(1), 2),           # blobs only
        "spread": (_parse_finite_float, 0.15),  # blob spread / ring radial noise
        "normalize": (_parse_bool, True),
        "dir": (str, ""),                       # where gen-data wrote its files
        "train_file": (str, ""),                # table kind only
        "test_file": (str, ""),
        "delimiter": (_one_character, ","),
        "has_header": (_parse_bool, False),
    },
    "model": {
        "repr_dim": (int, 8),
        "power": (_parse_finite_float, 1.0),
        "encoder_hidden": (_parse_int_list, [64, 64]),
        "decoder_hidden": (_parse_int_list, [64]),
    },
    "channel": {
        "family": (_choice(FAMILIES, fold_case=True), "awgn"),
        "psnr_db": (_parse_psnr, 20.0),
    },
    "train": {
        "lambda": (_parse_finite_float, 0.0),
        "noise_draws": (int, 4),
        "epochs": (int, 100),
        "batch_size": (int, 64),
        "learning_rate": (_parse_finite_float, 1e-3),
        "psnr_mode": (_choice(("fixed", "uniform")), "fixed"),
        "psnr_low": (_parse_finite_float, 10.0),
        "psnr_high": (_parse_finite_float, 25.0),
        "omit_sigma2": (_parse_bool, False),
        "checkpoint_every": (_int_at_least(0), 0),     # 0: only the final checkpoint
    },
    "experiment": {
        "kind": (_choice(("sweep", "taylor", "reg-track", "posterior-map")), "sweep"),
        "checkpoint": (str, ""),
        "checkpoint_a": (str, ""),
        "checkpoint_b": (str, ""),
        "psnr_grid": (_parse_psnr_list, [5.0, 10.0, 15.0, 20.0, 25.0]),
        "trials": (int, 20),
        "mc_samples": (int, 10000),
        "taylor_psnr_grid": (_parse_psnr_list, [25.0, 20.0, 15.0, 10.0]),
        "sample_limit": (int, 256),
        "resolution": (int, 33),
        "extent_std": (_parse_finite_float, 3.0),
        "sample_index": (int, 0),
    },
}


def load_config(path) -> dict:
    """Parse and validate an INI config; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
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


def _environment() -> dict:
    """What besides the config and seed shapes a run: byte identity holds within one
    build (BLAS paths move bits), and thread and malloc settings move time and RSS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):    # older NumPy has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "affinity_count": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                           else None),
        "variables": {key: value for key, value in sorted(os.environ.items())
                      if key.endswith("_NUM_THREADS") or key.startswith("MALLOC_")},
    }


def _publish(out_dir: Path, command: str, config: dict, seed: int,
             inputs: dict, writers: dict) -> None:
    """Write each artifact by `writers[name](path)`, then the manifest of `inputs` (key ->
    path), the artifacts and the `_environment`, to temporary names in out_dir; rename
    them in, the manifest last. An OSError is a config error, and leaves no temporary
    file and no artifact without its manifest; a failed write leaves a previous run's
    files as they were, and removes the directories this call made."""
    staged = {}     # nothing is staged until out_dir exists
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            staged[name] = out_dir / f"{name}.partial"
            write(staged[name])
        doc = {
            "tool": "fisherjscc",
            "version": __version__,
            "command": command,
            "seed": seed,
            "config": config,
            "input_digests": {key: _sha256(path) for key, path in inputs.items()},
            "output_digests": {name: _sha256(path) for name, path in staged.items()},
            "environment": _environment(),
        }
        staged["manifest.json"] = out_dir / "manifest.json.partial"
        staged["manifest.json"].write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        (out_dir / "manifest.json").unlink(missing_ok=True)
        for name, path in staged.items():
            os.replace(path, out_dir / name)
    except OSError as exc:
        for path in staged.values():
            path.unlink(missing_ok=True)
        for path in made:               # deepest first
            try:
                path.rmdir()
            except OSError:
                break
        raise ConfigError(f"cannot write output directory {out_dir}: {exc}") from None


def _manifest_digests(path: Path) -> dict:
    """The `output_digests` map of a manifest; a file that holds none is a data error."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:       # not JSON, or not UTF-8
        raise DataError(f"unreadable manifest {path}: {exc}") from None
    digests = manifest.get("output_digests") if isinstance(manifest, dict) else None
    if not isinstance(digests, dict):
        raise DataError(f"manifest {path} holds no output_digests map")
    return digests


def _check_budget(floats: int, key: str, value, holder: str) -> None:
    """Refuse, naming key, a config value whose largest array, `holder`, would hold more
    than FLOAT_BUDGET floats."""
    if floats > FLOAT_BUDGET:
        raise ConfigError(f"{key} = {value}: {holder} would hold {floats} floats, more "
                          f"than the {FLOAT_BUDGET} allowed")


def _noise_variance(psnr_db: float, power: float, key: str) -> float:
    """psnr_to_sigma2 of a configured PSNR; one that overflows is a config error on key."""
    try:
        return psnr_to_sigma2(psnr_db, power)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _check_out(out: str, force: bool) -> Path:
    """The output directory, refused up front if it or the nearest of its parents that
    exists is not a directory, or if it holds files and force is off; `_publish` makes it."""
    out_dir = Path(out)
    nearest = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output path {out}: {nearest} exists and is not a directory")
    if nearest == out_dir and any(out_dir.iterdir()) and not force:
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
                               has_header=section["has_header"])
        test_set = load_table(section["test_file"], delimiter=section["delimiter"],
                              has_header=section["has_header"],
                              label_map={n: i for i, n in enumerate(train_set.label_names)})
    return train_set, test_set


def _load_datasets_from_dir(config: dict) -> tuple[Dataset, Dataset]:
    """The raw train and test splits; the test labels use the train split's label map."""
    data_dir = config["data"]["dir"]
    if not data_dir:
        raise ConfigError("[data] dir must point at a gen-data output directory")
    train_path = Path(data_dir) / "train.csv"
    test_path = Path(data_dir) / "test.csv"
    for path in (train_path, test_path):
        if not path.exists():
            raise DataError(f"dataset file missing: {path}")
    train_set = load_table(train_path)
    test_set = load_table(
        test_path, label_map={n: i for i, n in enumerate(train_set.label_names)})
    return train_set, test_set


def _build_models(config: dict, input_dim: int, num_classes: int, seed: int):
    model = config["model"]
    try:
        encoder = EncoderModel(input_dim, model["repr_dim"], model["power"],
                               hidden=model["encoder_hidden"], seed=derive_seed(seed, "encoder"))
        decoder = DecoderModel(model["repr_dim"], num_classes,
                               hidden=model["decoder_hidden"], seed=derive_seed(seed, "decoder"))
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc
    return encoder, decoder


def _load_checkpoint_checked(path, config: dict):
    if not path:
        raise ConfigError("[experiment] checkpoint path is required")
    if not Path(path).exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        encoder, decoder, normalizer_doc, meta = load_checkpoint(path)
        normalizer = Normalizer.from_dict(normalizer_doc) if normalizer_doc else None
        if normalizer and normalizer.mean.shape + normalizer.std.shape != (encoder.input_dim,) * 2:
            raise ValueError(f"its normalizer does not have {encoder.input_dim} features")
    except (ValueError, OSError) as exc:     # OSError: a directory, say
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
    return encoder, decoder, normalizer, meta


def _test_set_for(config: dict, encoder: EncoderModel, normalizer: Normalizer | None):
    """The test split under the checkpoint's normalizer (raw when it has none), never a refit."""
    _, test_set = _load_datasets_from_dir(config)
    if test_set.dim != encoder.input_dim:
        raise ConfigError(f"[data] dir holds {test_set.dim} features, the checkpoint's "
                          f"encoder takes {encoder.input_dim}")
    return normalizer.apply(test_set) if normalizer else test_set


# ---------------------------------------------------------------------------
# Commands.


def _check_generated_splits(section: dict) -> None:
    """Refuse a [data] per_class_train or per_class_test whose generated split passes
    FLOAT_BUDGET floats: classes x per_class rows of 2 features (rings) or dim (blobs)."""
    features = {"rings": 2, "blobs": section["dim"]}.get(section["kind"])
    if features is None:        # a table is read, not generated
        return
    for key in ("per_class_train", "per_class_test"):
        _check_budget(section["classes"] * section[key] * features, f"[data] {key}",
                      section[key], f"a split of {section['classes']} classes x "
                                    f"{features} features")


def cmd_gen_data(config: dict, seed: int, force: bool, verify: bool) -> int:
    out_dir = Path(config["run"]["out"])
    manifest_path = out_dir / "manifest.json"
    if verify:
        if not manifest_path.exists():
            raise DataError(f"no manifest to verify at {manifest_path}")
        digests = _manifest_digests(manifest_path)
        for name, digest in digests.items():
            path = out_dir / name
            if Path(name).name != name or name == ".." or path.is_symlink() or not path.is_file():
                raise DataError(f"verify failed: {name!r} is missing or not a regular file "
                                f"directly in {out_dir}")
            actual = _sha256(path)
            if actual != digest:
                raise DataError(f"verify failed: {name} digest {actual} != manifest {digest}")
        print(f"verified {len(digests)} files against {manifest_path}")
        return EXIT_OK

    out_dir = _check_out(config["run"]["out"], force)
    _check_generated_splits(config["data"])
    try:
        train_set, test_set = _generate_datasets(config, seed)
    except DataError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[data] {exc}") from exc
    section = config["data"]
    inputs = ({key: section[key] for key in ("train_file", "test_file")}
              if section["kind"] == "table" else {})
    _publish(out_dir, "gen-data", config, seed, inputs,
             {"train.csv": partial(save_table, train_set),
              "test.csv": partial(save_table, test_set)})
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


def _check_step_block(config: dict, classes: int) -> None:
    """Refuse a [train] noise_draws whose step block passes FLOAT_BUDGET floats."""
    section = config["train"]
    widths = (config["model"]["repr_dim"], *config["model"]["decoder_hidden"], classes)
    _check_budget(section["noise_draws"] * section["batch_size"] * max(widths),
                  "[train] noise_draws", section["noise_draws"],
                  "a step's block (noise_draws x batch_size x the widest decoder layer)")


def _check_map_grid(resolution: int, decoder: DecoderModel) -> None:
    """Refuse an [experiment] resolution whose map passes FLOAT_BUDGET floats: resolution^2
    points through the widest of repr_dim, the decoder's hidden widths and its classes."""
    _check_budget(resolution**2 * max(decoder.sizes), "[experiment] resolution", resolution,
                  "the map (resolution^2 points x the widest decoder layer)")


def cmd_train(config: dict, seed: int, force: bool) -> int:
    out_dir = _check_out(config["run"]["out"], force)
    train_config = _train_config_from(config, seed)
    _check_step_block(config, config["data"]["classes"])
    train_set, _ = _load_datasets_from_dir(config)
    _check_step_block(config, train_set.num_classes)     # a table's classes can differ
    normalizer = Normalizer.fit(train_set) if config["data"]["normalize"] else None
    train_set = normalizer.apply(train_set) if normalizer else train_set
    encoder, decoder = _build_models(config, train_set.dim, train_set.num_classes, seed)
    # The largest training variance comes from the lowest PSNR a batch can draw.
    section, key = (("channel", "psnr_db") if config["train"]["psnr_mode"] == "fixed"
                    else ("train", "psnr_low"))
    _noise_variance(config[section][key], encoder.power, f"[{section}] {key}")
    inputs = {name: Path(config["data"]["dir"]) / name for name in ("train.csv", "test.csv")}
    every = config["train"]["checkpoint_every"]
    snapshots = {}  # checkpoint name -> (encoder, decoder, epochs), written when training ends

    def on_epoch(stats) -> None:
        done = stats.epoch + 1
        if every and done % every == 0:
            snapshots[f"checkpoint_epoch{done:04d}.json"] = copy.deepcopy((encoder, decoder, done))

    try:
        stats = train(train_config, train_set, encoder, decoder, on_epoch=on_epoch)
    except TrainDivergenceError as exc:
        logger.error("training diverged: %s", exc.snapshot)
        _publish(out_dir, "train", config, seed, inputs, {"divergence.json": partial(
            Path.write_text, data=json.dumps(exc.snapshot, indent=1) + "\n")})
        raise
    snapshots["checkpoint.json"] = (encoder, decoder, train_config.epochs)
    normalizer_doc = normalizer.to_dict() if normalizer else None
    writers = {name: partial(save_checkpoint, encoder=e, decoder=d, normalizer=normalizer_doc,
                             meta={"seed": seed, "epochs": epochs})
               for name, (e, d, epochs) in snapshots.items()}
    writers["trainlog.csv"] = partial(
        write_csv, schema=TRAINLOG_SCHEMA, header=TRAINLOG_HEADER,
        rows=[[getattr(s, column) for column in TRAINLOG_HEADER] for s in stats])
    _publish(out_dir, "train", config, seed, inputs, writers)
    checkpoint_path = out_dir / "checkpoint.json"
    if stats:
        print(f"trained {train_config.epochs} epochs; "
              f"final accuracy {stats[-1].accuracy:.4f}; checkpoint at {checkpoint_path}")
    else:
        print(f"0 epochs requested; wrote the initialized checkpoint to {checkpoint_path}")
    return EXIT_OK


def cmd_eval(config: dict, seed: int, force: bool, kind_override: str | None = None,
             threads: int | None = None) -> int:
    section = config["experiment"]
    kind = kind_override or section["kind"]
    family = config["channel"]["family"]
    if kind == "taylor" and family != "awgn":
        raise ConfigError(f"the taylor experiment supports [channel] family = awgn only, "
                          f"got {family!r}: the unconditional fading KL has no finite "
                          f"penalty to compare with")
    out_dir = _check_out(config["run"]["out"], force)
    encoder, decoder, normalizer, _ = _load_checkpoint_checked(section["checkpoint"], config)
    test_set = _test_set_for(config, encoder, normalizer)
    eval_seed = derive_seed(seed, "eval")

    try:
        if kind == "sweep":
            rows = experiments.error_sweep(encoder, decoder, test_set, section["psnr_grid"],
                                           family, section["trials"], eval_seed,
                                           threads=threads)
            name, schema, header = "sweep.csv", SWEEP_SCHEMA, SweepRow._fields
        elif kind == "taylor":
            if section["sample_limit"] < 1:
                raise ValueError("sample_limit must be >= 1")
            limit = min(section["sample_limit"], len(test_set))
            sigma2_grid = [_noise_variance(p, encoder.power, "[experiment] taylor_psnr_grid")
                           for p in section["taylor_psnr_grid"]]
            rows = experiments.taylor_validation(encoder, decoder,
                                                 test_set.features[:limit], sigma2_grid,
                                                 section["mc_samples"], eval_seed,
                                                 threads=threads)
            name, schema, header = "taylor.csv", TAYLOR_SCHEMA, TaylorRow._fields
        elif kind == "reg-track":
            rows = experiments.regularizer_track(encoder, decoder, section["psnr_grid"],
                                                 test_set)
            name, schema, header = "regtrack.csv", REGTRACK_SCHEMA, REGTRACK_HEADER
        else:  # posterior-map
            psnr_db = config["channel"]["psnr_db"]
            sigma2 = _noise_variance(psnr_db, encoder.power, "[channel] psnr_db")
            if sigma2 == 0.0:
                raise ConfigError(f"[channel] psnr_db = {psnr_db}: the map spans extent_std "
                                  f"noise standard deviations, and there is no noise")
            _check_map_grid(section["resolution"], decoder)
            grid = experiments.posterior_grid(encoder, decoder, test_set,
                                              section["sample_index"], section["resolution"],
                                              section["extent_std"], sigma2)
            rows = experiments.posterior_rows(grid)
            name, schema, header = "posterior.csv", POSTERIOR_SCHEMA, POSTERIOR_HEADER
    except ValueError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc

    _publish(out_dir, f"eval:{kind}", config, seed, {"checkpoint": section["checkpoint"]},
             {name: partial(write_csv, schema=schema, header=header, rows=rows)})
    print(f"wrote {out_dir / name}")
    return EXIT_OK


def cmd_compare(config: dict, seed: int, force: bool, threads: int | None = None) -> int:
    section = config["experiment"]
    out_dir = _check_out(config["run"]["out"], force)
    encoder_a, decoder_a, norm_a, _ = _load_checkpoint_checked(section["checkpoint_a"], config)
    encoder_b, decoder_b, norm_b, _ = _load_checkpoint_checked(section["checkpoint_b"], config)
    if (norm_a and norm_a.to_dict()) != (norm_b and norm_b.to_dict()):
        raise ConfigError("checkpoint_a and checkpoint_b normalize their inputs differently, "
                          "so no one test set feeds both")
    test_set = _test_set_for(config, encoder_a, norm_a)
    try:
        rows = experiments.paired_compare(encoder_a, decoder_a, encoder_b, decoder_b,
                                          test_set, section["psnr_grid"],
                                          config["channel"]["family"],
                                          section["trials"], derive_seed(seed, "compare"),
                                          threads=threads)
    except ValueError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc
    inputs = {key: section[key] for key in ("checkpoint_a", "checkpoint_b")}
    _publish(out_dir, "compare", config, seed, inputs, {"compare.csv": partial(
        write_csv, schema=COMPARE_SCHEMA, header=CompareRow._fields, rows=rows)})
    signs = [r.sign for r in rows]
    print(f"wrote {out_dir / 'compare.csv'}; sign summary: a better at {signs.count('a<b')}, "
          f"b better at {signs.count('a>b')}, ties {signs.count('tie')} of {len(rows)} PSNRs")
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
        return p

    def pooled(p):
        common(p).add_argument(
            "--threads", type=int, default=None,
            help="workers for the PSNR cells (default: one per CPU this process may run "
                 "on, at most one per cell); any count gives the same bytes; BLAS runs "
                 "one thread per process unless OPENBLAS_NUM_THREADS is set")

    p = common(sub.add_parser("gen-data", help="generate dataset files and a manifest"))
    p.add_argument("--verify", action="store_true",
                   help="verify existing files against the manifest digests")
    common(sub.add_parser("train", help="train a model pair, write checkpoint + log"))
    pooled(sub.add_parser("eval", help="run the experiment configured in [experiment]"))
    pooled(sub.add_parser("compare", help="paired sweep of two checkpoints"))
    pooled(sub.add_parser("validate-approx", help="alias for eval with kind=taylor"))
    common(sub.add_parser("posterior-map", help="alias for eval with kind=posterior-map"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("FISHERJSCC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    # An overflow, a division by zero or an invalid operation raises instead of
    # warning, so it ends as a numerical abort; the PSNR cells' pool threads take
    # this policy from the thread that starts them.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return _run(args)


def _run(args) -> int:
    try:
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
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
            return cmd_eval(config, seed, args.force, threads=threads)
        if args.command == "compare":
            return cmd_compare(config, seed, args.force, threads=threads)
        if args.command == "validate-approx":
            return cmd_eval(config, seed, args.force, kind_override="taylor",
                            threads=threads)
        if args.command == "posterior-map":
            return cmd_eval(config, seed, args.force, kind_override="posterior-map")
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainDivergenceError, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
