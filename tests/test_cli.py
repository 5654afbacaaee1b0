"""End-to-end CLI behaviour: strict configs, manifests, reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fisherjscc import cli
from fisherjscc.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, ConfigError,
                            load_config, main)
from fisherjscc.models import DecoderModel, load_checkpoint
from fisherjscc.rng import CounterRng


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path) -> list[dict]:
    """The rows of a CSV artifact keyed by its header, after the schema line."""
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readline().startswith("# schema=")
        return list(csv.DictReader(fh))


def write_config(path, out_dir, data_dir, *, seed=7, kind="rings", classes=3,
                 per_class=40, epochs=2, lam=0.0, extra=""):
    path.write_text(f"""
[run]
seed = {seed}
out = {out_dir}

[data]
kind = {kind}
classes = {classes}
per_class_train = {per_class}
per_class_test = {per_class}
spread = 0.15
dir = {data_dir}

[model]
repr_dim = 4
power = 1.0
encoder_hidden = 16
decoder_hidden = 16

[channel]
family = awgn
psnr_db = 15.0

[train]
lambda = {lam}
noise_draws = 2
epochs = {epochs}
batch_size = 32
learning_rate = 0.001

[experiment]
kind = sweep
psnr_grid = 5,15
trials = 3
{extra}
""")


class TestConfigParsing:
    def test_unknown_key_rejected_before_computation(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\nout = x\nbanana = 2\n")
        with pytest.raises(ConfigError, match="banana"):
            load_config(config)

    def test_unknown_section_rejected(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\nout = x\n[extra]\na = 1\n")
        with pytest.raises(ConfigError, match="extra"):
            load_config(config)

    def test_missing_required_key_rejected(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\n")
        with pytest.raises(ConfigError, match="out"):
            load_config(config)

    def test_type_error_reported_with_location(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = notanumber\nout = x\n")
        with pytest.raises(ConfigError, match=r"\[run\] seed"):
            load_config(config)

    def test_family_is_lower_cased(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nout = x\n[channel]\nfamily = Rayleigh\n")
        assert load_config(config)["channel"]["family"] == "rayleigh"

    def test_misspelled_key_exits_with_config_code(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\nout = x\n[train]\nepocks = 3\n")
        code = main(["train", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "epocks" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        out = tmp_path / "out"
        write_config(config, out, out)
        config.write_bytes(config.read_bytes().replace(b"kind = rings", b"kind = rings\n# \xff"))
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(config)
        assert main(["gen-data", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["nope", ""])
    def test_log_level_that_names_no_level_is_a_config_error(self, tmp_path, level):
        """In a fresh interpreter, where the root logger has no handler yet."""
        config = tmp_path / "run.ini"
        out = tmp_path / "out"
        write_config(config, out, out)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, FISHERJSCC_LOG=level, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "fisherjscc.cli", "gen-data",
                               "--config", str(config)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            f"config error: FISHERJSCC_LOG = {level!r} names no log level"]
        assert not out.exists()


class TestGenData:
    def test_same_config_same_digests(self, tmp_path):
        config = tmp_path / "run.ini"
        for attempt in ("one", "two"):
            out = tmp_path / attempt
            write_config(config, out, out)
            assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        assert sha256(tmp_path / "one" / "train.csv") == sha256(tmp_path / "two" / "train.csv")
        assert sha256(tmp_path / "one" / "test.csv") == sha256(tmp_path / "two" / "test.csv")

    def test_row_count(self, tmp_path):
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out, kind="blobs", classes=4, per_class=200)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        lines = (out / "train.csv").read_text().splitlines()
        assert len(lines) == 800

    def test_refuses_existing_output_without_force(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        assert main(["gen-data", "--config", str(config)]) == EXIT_CONFIG
        assert "force" in capsys.readouterr().err
        assert main(["gen-data", "--config", str(config), "--force"]) == EXIT_OK

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    def test_output_path_naming_a_file_is_a_config_error(self, tmp_path, capsys, force):
        """--out naming a file, or a path below one, is refused before any data is read:
        train's missing data directory would otherwise be a data error."""
        config = tmp_path / "run.ini"
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        for out in (taken, taken / "sub"):
            for command in ("gen-data", "train"):
                write_config(config, out, tmp_path / "missing")
                assert main([command, "--config", str(config), *force]) == EXIT_CONFIG
                err = capsys.readouterr().err
                assert "config error" in err and str(out) in err and "Traceback" not in err
                assert taken.read_text() == "keep\n"

    def test_tab_separated_table_loads(self, tmp_path):
        """`delimiter = tab` names the tab, which configparser strips from a literal value."""
        for split, rows in (("train", ["0.5\t1.0\ta", "-1.5\t2.0\tb"]), ("test", ["1.0\t0.0\tb"])):
            (tmp_path / f"{split}.tsv").write_text("\n".join(rows) + "\n")
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out, kind="table")
        config.write_text(config.read_text().replace(
            "kind = table", f"kind = table\ntrain_file = {tmp_path / 'train.tsv'}\n"
                            f"test_file = {tmp_path / 'test.tsv'}\ndelimiter = tab"))
        assert load_config(config)["data"]["delimiter"] == "\t"
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        assert (out / "train.csv").read_text() == "0.5,1.0,a\n-1.5,2.0,b\n"
        assert (out / "test.csv").read_text() == "1.0,0.0,b\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {"train_file": sha256(tmp_path / "train.tsv"),
                                             "test_file": sha256(tmp_path / "test.tsv")}

    def test_verify_detects_tampering(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        assert main(["gen-data", "--config", str(config), "--verify"]) == EXIT_OK
        with open(out / "train.csv", "a") as fh:
            fh.write("9.9,9.9,tampered\n")
        assert main(["gen-data", "--config", str(config), "--verify"]) == EXIT_DATA
        assert "digest" in capsys.readouterr().err

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        """The build, the CPUs and every thread-count and malloc variable; the block is no
        artifact, so other settings give the same digests and verify still passes."""
        config = tmp_path / "run.ini"
        malloc = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2"}
        manifests = []
        for name, variables in (("plain", {}), ("set", {**malloc, "OMP_NUM_THREADS": "3"})):
            out = tmp_path / name
            write_config(config, out, out)
            with monkeypatch.context() as patch:
                for key in (*malloc, "OMP_NUM_THREADS"):
                    patch.delenv(key, raising=False)
                for key, value in {**variables, "FISHERJSCC_UNRELATED": "1"}.items():
                    patch.setenv(key, value)
                assert main(["gen-data", "--config", str(config)]) == EXIT_OK
                assert main(["gen-data", "--config", str(config), "--verify"]) == EXIT_OK
            manifests.append(json.loads((out / "manifest.json").read_text()))
        plain, changed = (manifest["environment"] for manifest in manifests)
        assert set(plain) == {"python", "numpy", "blas", "cpu_count", "affinity_count",
                              "variables"}
        assert set(plain["blas"]) == {"name", "version"}
        assert plain["numpy"] == np.__version__ and plain["cpu_count"] == os.cpu_count()
        assert plain["affinity_count"] == len(os.sched_getaffinity(0))
        assert plain["variables"]["OPENBLAS_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"]
        assert changed["variables"] == {**plain["variables"], **malloc, "OMP_NUM_THREADS": "3"}
        assert "FISHERJSCC_UNRELATED" not in changed["variables"]
        assert manifests[0]["output_digests"] == manifests[1]["output_digests"]

    @pytest.mark.parametrize("defect", ["not-json", "no-digests", "directory", "missing",
                                        "nested"])
    def test_verify_bad_manifest_is_a_data_error(self, tmp_path, capsys, defect):
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        manifest = out / "manifest.json"
        manifest.unlink()
        if defect == "directory":
            manifest.mkdir()
        elif defect == "nested":      # deeper than the parser's recursion limit
            manifest.write_text('{"a":' * 50_000 + "1" + "}" * 50_000, encoding="utf-8")
        elif defect != "missing":
            manifest.write_text("{not json" if defect == "not-json" else "{}", encoding="utf-8")
        capsys.readouterr()
        assert main(["gen-data", "--config", str(config), "--verify"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "manifest.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", ["directory", "parent"])
    def test_verify_entry_that_is_not_a_file_in_the_output_is_a_data_error(
            self, tmp_path, capsys, entry):
        """A directory, and a file outside the output directory whose digest matches."""
        config = tmp_path / "run.ini"
        out = tmp_path / "data"
        write_config(config, out, out)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        outside = tmp_path / "t.csv"
        outside.write_text("outside\n")
        if entry == "directory":
            (out / "sub").mkdir()
            name, digest = "sub", "0" * 64
        else:
            name, digest = "../t.csv", sha256(outside)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["output_digests"][name] = digest
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["gen-data", "--config", str(config), "--verify"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and name in err and "Traceback" not in err


@pytest.fixture()
def data_dir(tmp_path):
    config = tmp_path / "gen.ini"
    out = tmp_path / "data"
    write_config(config, out, out)
    assert main(["gen-data", "--config", str(config)]) == EXIT_OK
    return out


class TestTrainCommand:
    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / attempt
            write_config(config, out, data_dir, epochs=0)
            assert main(["train", "--config", str(config)]) == EXIT_OK
            digests.append(sha256(out / "checkpoint.json"))
        assert digests[0] == digests[1]

    def test_identical_config_identical_checkpoint_digest(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / attempt
            write_config(config, out, data_dir, epochs=2)
            assert main(["train", "--config", str(config)]) == EXIT_OK
            digests.append(sha256(out / "checkpoint.json"))
        assert digests[0] == digests[1]

    def test_lambda_changes_checkpoint(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        digests = {}
        for lam in (0.0, 1.0):
            out = tmp_path / f"lam{lam}"
            write_config(config, out, data_dir, epochs=2, lam=lam)
            assert main(["train", "--config", str(config)]) == EXIT_OK
            digests[lam] = sha256(out / "checkpoint.json")
        assert digests[0.0] != digests[1.0]

    def test_missing_data_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "train.ini"
        write_config(config, tmp_path / "out", tmp_path / "missing")
        assert main(["train", "--config", str(config)]) == EXIT_DATA

    @pytest.mark.parametrize("defect", ["directory", "not_utf8", "one_column", "huge_cell"])
    def test_unreadable_data_file_is_a_data_error(self, tmp_path, data_dir, capsys, defect):
        train_csv = data_dir / "train.csv"
        train_csv.unlink()
        if defect == "directory":
            train_csv.mkdir()
        elif defect == "not_utf8":
            train_csv.write_bytes(b"\xff\xfe1.0,2.0,a\n")
        elif defect == "huge_cell":     # past the csv module's field size limit
            train_csv.write_text("1.0,2.0," + "a" * 140_000 + "\n")
        else:       # no feature column
            train_csv.write_text("a\nb\n")
        config = tmp_path / "train.ini"
        out = tmp_path / "out"
        write_config(config, out, data_dir)
        assert main(["train", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    def test_divergence_is_a_numerical_abort(self, tmp_path, data_dir, capsys):
        """A step that turns non-finite exits 4 and leaves its snapshot, no traceback."""
        config = tmp_path / "train.ini"
        out = tmp_path / "diverged"
        write_config(config, out, data_dir, epochs=2)
        config.write_text(config.read_text().replace("learning_rate = 0.001",
                                                     "learning_rate = 1e300"))
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical abort" in err and "Traceback" not in err
        snapshot = json.loads((out / "divergence.json").read_text())
        assert set(snapshot) == {"epoch", "batch", "sigma2"}
        assert sorted(path.name for path in out.iterdir()) == ["divergence.json",
                                                               "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["output_digests"] == {"divergence.json": sha256(out / "divergence.json")}

    def test_manifest_records_inputs_and_outputs(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        out = tmp_path / "run"
        write_config(config, out, data_dir, epochs=1)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "train.csv" in manifest["input_digests"]
        assert "checkpoint.json" in manifest["output_digests"]
        assert manifest["config"]["train"]["epochs"] == 1


class TestEvalCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        out = tmp_path / "model"
        write_config(config, out, data_dir, epochs=2)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        return out / "checkpoint.json"

    def test_eval_twice_byte_identical(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"eval_{attempt}"
            write_config(config, out, data_dir,
                         extra=f"checkpoint = {checkpoint}")
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_single_point_grid_single_row(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval1"
        write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
        text = config.read_text().replace("psnr_grid = 5,15", "psnr_grid = 10")
        config.write_text(text)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # schema line, header, one row

    def test_infinite_psnr_is_the_noise_free_cell(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval_inf"
        write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
        config.write_text(config.read_text().replace("psnr_grid = 5,15", "psnr_grid = inf,5"))
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        row = read_table(out / "sweep.csv")[0]
        assert row["psnr_db"] == "inf" and row["mean_expected_kl"] == "0.0"

    def test_architecture_mismatch_reports_fields(self, tmp_path, data_dir,
                                                  checkpoint, capsys):
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval2"
        write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
        config.write_text(config.read_text().replace("repr_dim = 4", "repr_dim = 6"))
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "repr_dim" in err and "6" in err and "4" in err

    def test_chance_level_checkpoint(self, tmp_path, data_dir):
        """A 0-epoch (zero-bias, glorot) checkpoint... use zeroed decoder via
        0 epochs then confirm near-chance error at harsh noise."""
        config = tmp_path / "train.ini"
        model_out = tmp_path / "chance"
        write_config(config, model_out, data_dir, epochs=0)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        # Zero every decoder parameter so the posterior is exactly uniform.
        doc = json.loads((model_out / "checkpoint.json").read_text())
        doc["decoder"]["params"] = [0.0] * len(doc["decoder"]["params"])
        (model_out / "checkpoint.json").write_text(json.dumps(doc))
        eval_config = tmp_path / "eval.ini"
        out = tmp_path / "eval3"
        write_config(eval_config, out, data_dir,
                     extra=f"checkpoint = {model_out / 'checkpoint.json'}")
        assert main(["eval", "--config", str(eval_config)]) == EXIT_OK
        for row in read_table(out / "sweep.csv"):
            assert abs(float(row["error_rate"]) - (1.0 - 1.0 / 3.0)) <= 0.02

    @pytest.mark.parametrize("defect", ["nan_weight", "wrong_format", "normalizer_width",
                                        "shape_mismatch", "missing_param", "not_an_object",
                                        "power_null", "power_text", "encoder_list",
                                        "sizes_null", "params_length", "normalizer_list",
                                        "directory", "std_zero", "std_negative", "std_nan",
                                        "mean_nan", "missing", "version", "version_1",
                                        "nested", "power_huge_int", "weight_huge_int",
                                        "mean_huge_int", "normalizer_false",
                                        "normalizer_empty_object", "decoder_width",
                                        "weight_true", "weight_text", "std_text"])
    def test_bad_checkpoint_is_a_data_error(self, tmp_path, data_dir, checkpoint,
                                            capsys, defect):
        doc = json.loads(checkpoint.read_text())
        if defect == "not_an_object":
            doc = [doc]
        elif defect in ("power_null", "power_text"):
            doc["power"] = None if defect == "power_null" else "x"
        elif defect == "encoder_list":
            doc["encoder"] = [1]
        elif defect == "sizes_null":
            doc["encoder"]["sizes"] = None
        elif defect == "params_length":
            doc["decoder"]["params"].append(0.0)
        elif defect == "normalizer_list":
            doc["normalizer"] = [1]
        elif defect == "nan_weight":
            doc["decoder"]["params"][0] = float("nan")
        elif defect == "normalizer_width":
            doc["normalizer"]["mean"].append(0.0)
        elif defect == "shape_mismatch":     # one class more than the parameters hold
            doc["decoder"]["sizes"][-1] += 1
        elif defect == "missing_param":     # the last bias's values gone
            del doc["encoder"]["params"][-doc["encoder"]["sizes"][-1]:]
        elif defect == "wrong_format":
            doc["format"] = "something-else"
        elif defect in ("std_zero", "std_negative"):
            doc["normalizer"]["std"] = [0.0 if defect == "std_zero" else -1.0, 1.0]
        elif defect == "std_nan":
            doc["normalizer"]["std"][0] = float("nan")
        elif defect == "mean_nan":
            doc["normalizer"]["mean"][0] = float("nan")
        elif defect in ("version", "version_1"):
            doc["version"] = 3 if defect == "version" else 1
        elif defect == "power_huge_int":        # an integer too large for a float
            doc["power"] = 10**400
        elif defect == "weight_huge_int":
            doc["encoder"]["params"][0] = 10**400
        elif defect == "mean_huge_int":
            doc["normalizer"]["mean"][0] = 10**400
        elif defect in ("weight_true", "weight_text"):  # NumPy would read both as numbers
            doc["encoder"]["params"][0] = True if defect == "weight_true" else "0.25"
        elif defect == "std_text":
            doc["normalizer"]["std"][0] = "2.5"
        elif defect in ("normalizer_false", "normalizer_empty_object"):  # only null is raw
            doc["normalizer"] = False if defect == "normalizer_false" else {}
        elif defect == "decoder_width":     # consistent in itself, one wider than z
            decoder = doc["decoder"]
            end_of_w0 = decoder["sizes"][0] * decoder["sizes"][1]
            decoder["params"][end_of_w0:end_of_w0] = [0.0] * decoder["sizes"][1]
            decoder["sizes"][0] += 1
        bad = tmp_path / "bad_checkpoint.json"
        if defect == "directory":
            bad.mkdir()
        elif defect == "nested":      # deeper than the parser's recursion limit
            bad.write_text("[" * 100_000 + "]" * 100_000)
        elif defect != "missing":
            bad.write_text(json.dumps(doc))
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval_bad"
        write_config(config, out, data_dir, extra=f"checkpoint = {bad}")
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert ("re-train" in err) == defect.startswith("version")
        assert not out.exists()

    def test_every_key_of_the_file_is_read(self, tmp_path, data_dir, checkpoint, capsys):
        """The file holds what the loader needs and nothing more: deleting any top-level
        key, or any key of a model section, is a ValueError, and exit 3 with no traceback
        and no output directory. A null normalizer means raw features; a missing one is
        a fault."""
        doc = json.loads(checkpoint.read_text())
        assert set(doc) == {"format", "version", "power", "encoder", "decoder", "normalizer"}
        assert set(doc["encoder"]) == set(doc["decoder"]) == {"sizes", "params"}
        bad, config = tmp_path / "bad_checkpoint.json", tmp_path / "eval.ini"
        for section, key in [(None, key) for key in doc] + [
                (name, key) for name in ("encoder", "decoder") for key in doc[name]]:
            broken = json.loads(checkpoint.read_text())
            del (broken if section is None else broken[section])[key]
            bad.write_text(json.dumps(broken))
            with pytest.raises(ValueError):
                load_checkpoint(bad)
            out = tmp_path / f"eval_{section}_{key}"
            write_config(config, out, data_dir, extra=f"checkpoint = {bad}")
            capsys.readouterr()
            assert main(["eval", "--config", str(config)]) == EXIT_DATA, (section, key)
            err = capsys.readouterr().err
            assert "data error" in err and "Traceback" not in err and not out.exists()

    def test_checkpoint_sizes_are_checked_before_any_draw(self, tmp_path, data_dir,
                                                         checkpoint, capsys, monkeypatch):
        """Sizes declaring a 3000-wide layer over 16-wide parameters are refused before a
        model is built, so no initialization is drawn at the declared size."""
        doc = json.loads(checkpoint.read_text())
        doc["encoder"]["sizes"][1] = 3000
        bad = tmp_path / "wide_checkpoint.json"
        bad.write_text(json.dumps(doc))
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval_wide"
        write_config(config, out, data_dir, extra=f"checkpoint = {bad}")
        words = []
        uniforms = CounterRng.uniforms

        def spy(rng, n):
            words.append(n)
            return uniforms(rng, n)

        monkeypatch.setattr(CounterRng, "uniforms", spy)
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "numbers its sizes imply" in err and "Traceback" not in err
        assert words == [] and not out.exists()

    @pytest.mark.parametrize("command, edits, fragment", [
        ("gen-data", [("kind = rings", "kind = ringz")], "[data] kind"),
        ("train", [("family = awgn", "family = Rician")], "[channel] family"),
        ("train", [("learning_rate = 0.001", "learning_rate = 0.001\npsnr_mode = fixd")],
         "[train] psnr_mode"),
        ("train", [("lambda = 0.0", "lambda = -1")], "lambda"),
        ("train", [("noise_draws = 2", "noise_draws = 0")], "noise_draws"),
        ("train", [("family = awgn", "family = rayleigh"), ("lambda = 0.0", "lambda = 0.5")],
         "Rayleigh"),
        ("eval", [("kind = sweep", "kind = sweeep")], "[experiment] kind"),
        ("eval", [("kind = sweep", "kind = reg-track")], "[experiment] kind"),
        ("eval", [("family = awgn", "family = rician")], "[channel] family"),
        ("compare", [("family = awgn", "family = rician")], "[channel] family"),
        ("validate-approx", [("family = awgn", "family = rician")], "[channel] family"),
        ("validate-approx", [("family = awgn", "family = rayleigh")], "awgn only"),
        ("train", [("trials = 3", "trials = 3\ntrials = 4")], "malformed config"),
        ("eval", [("[experiment]", "[run]\nseed = 3\n\n[experiment]")], "malformed config"),
        ("gen-data", [("[run]\nseed = 7", "seed = 7\n[run]\nseed = 7")], "malformed config"),
        ("validate-approx", [("mc_samples = 50", "mc_samples = 10")], "[experiment] mc_samples"),
        ("validate-approx", [("sample_limit = 8", "sample_limit = 0")],
         "[experiment] sample_limit"),
        ("validate-approx", [("mc_samples = 50", "mc_samples = 5")],
         "[experiment] mc_samples = '5': expected an integer >= 20"),
        ("eval", [("kind = sweep", "kind = taylor"), ("sample_limit = 8", "sample_limit = -1")],
         "[experiment] sample_limit = '-1': expected an integer >= 1"),
        ("eval", [("trials = 3", "trials = 0")], "trials"),
        ("eval", [("psnr_grid = 5,15", "psnr_grid = 5,5")], "duplicate sweep cell"),
        ("compare", [("trials = 3", "trials = 0")], "trials"),
        ("validate-approx", [("trials = 3", "trials = 0")],
         "[experiment] trials = '0': expected an integer >= 1"),
        ("compare", [("psnr_grid = 5,15", "psnr_grid = 5,5")], "duplicate sweep cell"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nresolution = 7")],
         "resolution"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nsample_index = 9999")],
         "sample_index"),
        ("train", [("power = 1.0", "power = 0")], "power"),
        ("train", [("repr_dim = 4", "repr_dim = 0")], "layer widths"),
        ("train", [("encoder_hidden = 16", "encoder_hidden = 16,0")], "layer widths"),
        ("train", [("decoder_hidden = 16", "decoder_hidden = 0")], "layer widths"),
        ("gen-data", [("classes = 3", "classes = 1")], "[data] classes"),
        ("gen-data", [("spread = 0.15", "spread = nan")], "[data] spread"),
        ("gen-data", [("spread = 0.15", "spread = inf")], "[data] spread"),
        ("gen-data", [("per_class_train = 40", "per_class_train = 0")],
         "[data] per_class_train"),
        ("gen-data", [("per_class_test = 40", "per_class_test = 0")], "[data] per_class_test"),
        ("gen-data", [("kind = rings", "kind = blobs\ndim = 0")], "[data] dim"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nresolution = 1000000")],
         "[experiment] resolution"),
        ("gen-data", [("per_class_train = 40", "per_class_train = 1000000000")],
         "[data] per_class_train"),
        ("gen-data", [("per_class_test = 40", "per_class_test = 1000000000")],
         "[data] per_class_test"),
        ("gen-data", [("kind = rings", "kind = blobs\ndim = 1000000000")],
         "[data] per_class_train"),
        ("train", [("learning_rate = 0.001", "learning_rate = 0.001\ncheckpoint_every = -1")],
         "[train] checkpoint_every"),
        ("eval --threads 0", [], "--threads"),
        ("train", [("psnr_db = 15.0", "psnr_db = nan")], "[channel] psnr_db"),
        ("train", [("psnr_db = 15.0", "psnr_db = -inf")], "[channel] psnr_db"),
        ("train", [("power = 1.0", "power = inf")], "[model] power"),
        ("train", [("lambda = 0.0", "lambda = nan")], "[train] lambda"),
        ("train", [("lambda = 0.0", "lambda = inf")], "[train] lambda"),
        ("train", [("learning_rate = 0.001", "learning_rate = nan")], "[train] learning_rate"),
        ("train", [("learning_rate = 0.001", "learning_rate = inf")], "[train] learning_rate"),
        ("train", [("learning_rate = 0.001", "learning_rate = 0")], "learning_rate"),
        ("train", [("learning_rate = 0.001", "learning_rate = -0.001")], "learning_rate"),
        ("train", [("learning_rate = 0.001",
                    "learning_rate = 0.001\npsnr_mode = uniform\npsnr_low = nan")],
         "[train] psnr_low"),
        ("train", [("learning_rate = 0.001",
                    "learning_rate = 0.001\npsnr_mode = uniform\npsnr_high = inf")],
         "[train] psnr_high"),
        ("eval", [("psnr_grid = 5,15", "psnr_grid = 5,nan")], "[experiment] psnr_grid"),
        ("compare", [("psnr_grid = 5,15", "psnr_grid = nan")], "[experiment] psnr_grid"),
        ("validate-approx", [("sample_limit = 8", "sample_limit = 8\ntaylor_psnr_grid = 25,nan")],
         "[experiment] taylor_psnr_grid"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nextent_std = nan")],
         "[experiment] extent_std"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nextent_std = 0")],
         "[experiment] extent_std"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nextent_std = -1")],
         "[experiment] extent_std"),
        ("eval", [("psnr_grid = 5,15", "psnr_grid =")], "[experiment] psnr_grid"),
        ("compare", [("psnr_grid = 5,15", "psnr_grid = ,")], "[experiment] psnr_grid"),
        ("validate-approx", [("sample_limit = 8", "sample_limit = 8\ntaylor_psnr_grid =")],
         "[experiment] taylor_psnr_grid"),
        ("posterior-map", [("psnr_db = 15.0", "psnr_db = nan")], "[channel] psnr_db"),
        ("train", [("psnr_db = 15.0", "psnr_db = -4000")], "[channel] psnr_db"),
        ("train", [("learning_rate = 0.001",
                    "learning_rate = 0.001\npsnr_mode = uniform\npsnr_low = -4000")],
         "[train] psnr_low"),
        ("eval", [("psnr_grid = 5,15", "psnr_grid = -4000,5")], "[experiment] psnr_grid"),
        ("compare", [("psnr_grid = 5,15", "psnr_grid = -4000,5")], "[experiment] psnr_grid"),
        ("validate-approx", [("sample_limit = 8", "sample_limit = 8\ntaylor_psnr_grid = -4000")],
         "[experiment] taylor_psnr_grid"),
        ("posterior-map", [("psnr_db = 15.0", "psnr_db = -4000")], "[channel] psnr_db"),
        ("posterior-map", [("psnr_db = 15.0", "psnr_db = inf")], "[channel] psnr_db"),
        ("gen-data", [("kind = rings", "kind = table")], "config error: [data] kind=table"),
        ("gen-data", [("kind = rings", "kind = table\ndelimiter =")], "[data] delimiter"),
        ("gen-data", [("kind = rings", "kind = table\ndelimiter = ;;")], "[data] delimiter"),
        ("gen-data", [("kind = rings", "kind = table\ndelimiter = ;")],
         "config error: [data] kind=table"),
        ("train", None, "config file not found"),
        ("train", [("spread = 0.15", "spread = 0.15\nnormalize = maybe")], "[data] normalize"),
        ("train", [("\ndir = ", "\ndir =\n# ")], "[data] dir"),
        ("eval", [("\ncheckpoint = ", "\ncheckpoint =\n# ")], "[experiment] checkpoint"),
        ("compare", [("\ncheckpoint_a = ", "\ncheckpoint_a =\n# ")], "[experiment] checkpoint_a"),
        ("compare", [("\ncheckpoint_b = ", "\ncheckpoint_b =\n# ")], "[experiment] checkpoint_b"),
    ], ids=["gen-data-kind", "train-family", "train-psnr_mode", "train-lambda",
            "train-noise_draws", "train-rayleigh-penalty", "eval-kind", "eval-kind-reg-track",
            "eval-family",
            "compare-family", "validate-approx-family", "validate-approx-rayleigh",
            "duplicate-key", "duplicate-section", "no-section-header",
            "validate-approx-mc_samples", "validate-approx-sample_limit",
            "validate-approx-mc_samples-five", "eval-taylor-sample_limit-negative", "eval-trials",
            "eval-duplicate-psnr", "compare-trials", "validate-approx-trials",
            "compare-duplicate-psnr",
            "posterior-map-resolution", "posterior-map-sample_index", "train-power",
            "train-repr_dim", "train-encoder_hidden", "train-decoder_hidden",
            "gen-data-classes", "gen-data-spread-nan", "gen-data-spread-inf",
            "gen-data-per_class_train", "gen-data-per_class_test", "gen-data-blobs-dim",
            "posterior-map-resolution-budget", "gen-data-per_class_train-budget",
            "gen-data-per_class_test-budget", "gen-data-blobs-dim-budget",
            "train-checkpoint_every", "eval-threads", "train-psnr_db-nan",
            "train-psnr_db-minus-inf", "train-power-inf", "train-lambda-nan",
            "train-lambda-inf", "train-learning_rate-nan", "train-learning_rate-inf",
            "train-learning_rate-zero", "train-learning_rate-negative", "train-psnr_low-nan",
            "train-psnr_high-inf", "eval-psnr_grid-nan", "compare-psnr_grid-nan",
            "validate-approx-taylor_psnr_grid-nan", "posterior-map-extent_std-nan",
            "posterior-map-extent_std-zero", "posterior-map-extent_std-negative",
            "eval-psnr_grid-empty", "compare-psnr_grid-empty",
            "validate-approx-taylor_psnr_grid-empty",
            "posterior-map-psnr_db-nan", "train-psnr_db-overflow", "train-psnr_low-overflow",
            "eval-psnr_grid-overflow", "compare-psnr_grid-overflow",
            "validate-approx-taylor_psnr_grid-overflow",
            "posterior-map-psnr_db-overflow", "posterior-map-psnr_db-inf",
            "gen-data-table-without-files", "gen-data-delimiter-empty",
            "gen-data-delimiter-two-characters", "gen-data-table-semicolon-without-files",
            "config-file-missing", "train-normalize-not-a-boolean", "train-data-dir-empty",
            "eval-checkpoint-empty", "compare-checkpoint_a-empty",
            "compare-checkpoint_b-empty"])
    def test_bad_config_is_a_config_error(self, tmp_path, data_dir, checkpoint, capsys,
                                          command, edits, fragment):
        """Exit 2 before any output directory exists, without a traceback; edits None
        removes the config file."""
        config = tmp_path / "bad.ini"
        out = tmp_path / "bad_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\ncheckpoint_a = {checkpoint}\n"
                           f"checkpoint_b = {checkpoint}\nmc_samples = 50\nsample_limit = 8")
        text = config.read_text()
        for old, new in edits or []:
            assert old in text
            text = text.replace(old, new)
        config.write_text(text)
        if edits is None:
            config.unlink()
        capsys.readouterr()
        assert main([*command.split(), "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and fragment in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, split, cell", [
        ("eval", "test.csv", "nan"), ("eval", "test.csv", "inf"),
        ("train", "train.csv", "nan"), ("train", "train.csv", "-inf"),
    ])
    def test_non_finite_feature_is_a_data_error(self, tmp_path, data_dir, checkpoint,
                                                capsys, command, split, cell):
        """Exit 3 before any output directory exists: no traceback, no divergence.json."""
        bad_dir = tmp_path / "bad_data"
        bad_dir.mkdir()
        for name in ("train.csv", "test.csv"):
            (bad_dir / name).write_bytes((data_dir / name).read_bytes())
        rows = (bad_dir / split).read_text().splitlines()
        rows[5] = ",".join([cell] + rows[5].split(",")[1:])
        (bad_dir / split).write_text("\n".join(rows) + "\n")
        config = tmp_path / "bad.ini"
        out = tmp_path / "bad_out"
        write_config(config, out, bad_dir, extra=f"checkpoint = {checkpoint}")
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_test_set_width_mismatch_is_a_config_error(self, tmp_path, checkpoint, capsys):
        """A [data] dir whose features the checkpoint's encoder does not take."""
        config = tmp_path / "wide.ini"
        wide = tmp_path / "wide_data"
        write_config(config, wide, wide, kind="blobs", extra=f"checkpoint = {checkpoint}")
        config.write_text(config.read_text().replace("spread = 0.15", "spread = 0.15\ndim = 3"))
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        out = tmp_path / "wide_out"
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "3 features" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_uses_the_checkpoint_normalizer(self, tmp_path, data_dir, checkpoint):
        """A train.csv from another seed changes no byte of the sweep: eval never refits."""
        other_config = tmp_path / "other.ini"
        other_data = tmp_path / "other_data"
        write_config(other_config, other_data, other_data, seed=8)
        assert main(["gen-data", "--config", str(other_config)]) == EXIT_OK
        swapped = tmp_path / "swapped_data"
        swapped.mkdir()
        (swapped / "train.csv").write_bytes((other_data / "train.csv").read_bytes())
        (swapped / "test.csv").write_bytes((data_dir / "test.csv").read_bytes())
        assert (swapped / "train.csv").read_bytes() != (data_dir / "train.csv").read_bytes()
        config = tmp_path / "eval.ini"
        sweeps = []
        for name, directory in (("original", data_dir), ("swapped", swapped)):
            out = tmp_path / f"eval_{name}"
            write_config(config, out, directory, extra=f"checkpoint = {checkpoint}")
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            sweeps.append((out / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]

    @pytest.fixture()
    def raw_checkpoint(self, tmp_path, data_dir):
        """A checkpoint trained with [data] normalize = false."""
        config = tmp_path / "raw.ini"
        model = tmp_path / "raw_model"
        write_config(config, model, data_dir, epochs=1)
        config.write_text(config.read_text().replace("spread = 0.15",
                                                     "spread = 0.15\nnormalize = false"))
        assert main(["train", "--config", str(config)]) == EXIT_OK
        return model / "checkpoint.json"

    def test_null_normalizer_means_raw_features(self, tmp_path, data_dir, raw_checkpoint):
        """A checkpoint trained without normalization is evaluated on raw features,
        whatever [data] normalize says."""
        assert json.loads(raw_checkpoint.read_text())["normalizer"] is None
        config = tmp_path / "eval.ini"
        sweeps = []
        for flag in ("true", "false"):
            out = tmp_path / f"eval_{flag}"
            write_config(config, out, data_dir, extra=f"checkpoint = {raw_checkpoint}")
            config.write_text(config.read_text().replace(
                "spread = 0.15", f"spread = 0.15\nnormalize = {flag}"))
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            sweeps.append((out / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_compare_refuses_differing_normalizers(self, tmp_path, data_dir, checkpoint,
                                                   raw_checkpoint, capsys):
        config = tmp_path / "cmp.ini"
        out = tmp_path / "cmp_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint_a = {checkpoint}\ncheckpoint_b = {raw_checkpoint}")
        capsys.readouterr()
        assert main(["compare", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "normalize" in err and "Traceback" not in err
        assert not out.exists()

    def test_compare_bad_checkpoint_b_is_a_data_error(self, tmp_path, data_dir, checkpoint,
                                                      capsys):
        """A normalizer of false in checkpoint_b is malformed, not raw features: exit 3
        naming the key, not the differing-normalizers config error."""
        doc = json.loads(checkpoint.read_text())
        doc["normalizer"] = False
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(doc))
        config = tmp_path / "cmp.ini"
        out = tmp_path / "cmp_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint_a = {checkpoint}\ncheckpoint_b = {bad}")
        capsys.readouterr()
        assert main(["compare", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "[experiment] checkpoint_b" in err
        assert "Traceback" not in err and not out.exists()

    def test_threads_flag_preserves_bytes(self, tmp_path, data_dir, checkpoint, monkeypatch):
        """--threads 1, 2 and the default, here one worker per task of four CPUs: 40 points
        x 1,000 draws make three blocks of draws."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        config = tmp_path / "eval.ini"
        outputs = []
        for attempt, flag in (("t1", ["--threads", "1"]), ("t2", ["--threads", "2"]),
                              ("default", [])):
            out = tmp_path / f"eval_{attempt}"
            write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
            assert main(["eval", "--config", str(config), *flag]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["gen-data", "train", "posterior-map"])
    def test_threads_refused_where_no_pool_runs(self, tmp_path, data_dir, checkpoint, capsys,
                                                command):
        """A usage error, exit 2 without a traceback, before any output exists."""
        config = tmp_path / "run.ini"
        out = tmp_path / "out"
        write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(config), "--threads", "2"])
        assert exit_info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-approx", "eval"])
    @pytest.mark.parametrize("sample_limit, samples", [
        (1, 2**27), (1, 2**27 + 1),
        (64, 2**21), (64, 2**21 + 1),
        (10**6, 2**27 // 120), (10**6, 2**27 // 120 + 1),
    ], ids=["one-point-at-budget", "one-point-past", "64-points-at-budget", "64-points-past",
            "test-set-at-budget", "test-set-past"])
    def test_mc_samples_has_no_budget(self, tmp_path, data_dir, checkpoint, capsys,
                                      monkeypatch, command, sample_limit, samples):
        """A taylor run keeps per-point moments, not a min(sample_limit, 120 test points)
        x mc_samples table, so mc_samples has no budget: at and one draw past where such a
        table would hold FLOAT_BUDGET floats, the run reaches the Taylor cells, stubbed
        here, so nothing that size runs."""
        calls = []
        monkeypatch.setattr(cli.experiments, "taylor_validation",
                            lambda *args, **kwargs: calls.append(args[4]) or [])
        config = tmp_path / "eval.ini"
        out = tmp_path / "out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nmc_samples = {samples}\n"
                           f"sample_limit = {sample_limit}")
        config.write_text(config.read_text().replace("kind = sweep", "kind = taylor"))
        capsys.readouterr()
        code = main([command, "--config", str(config)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == EXIT_OK and calls == [samples]

    def test_periodic_checkpoints_written(self, tmp_path, data_dir):
        """Each periodic checkpoint carries the normalizer and is in the manifest; the
        last epoch's evaluates to the same bytes as checkpoint.json."""
        config = tmp_path / "train.ini"
        out = tmp_path / "periodic"
        write_config(config, out, data_dir, epochs=2)
        text = config.read_text().replace("learning_rate = 0.001",
                                          "learning_rate = 0.001\ncheckpoint_every = 1")
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        outputs = json.loads((out / "manifest.json").read_text())["output_digests"]
        assert set(outputs) == {"checkpoint_epoch0001.json", "checkpoint_epoch0002.json",
                                "checkpoint.json", "trainlog.csv"}
        for name, digest in outputs.items():
            assert sha256(out / name) == digest
        sweeps = []
        for name in ("checkpoint_epoch0002.json", "checkpoint.json"):
            eval_out = tmp_path / f"eval_{name}"
            write_config(config, eval_out, data_dir, extra=f"checkpoint = {out / name}")
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            sweeps.append((eval_out / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_first_periodic_checkpoint_is_a_one_epoch_run(self, tmp_path, data_dir):
        """checkpoint_epoch0001.json holds the parameters after epoch 1, not a view of
        the ones training went on to update: the bytes of a separate one-epoch run's
        checkpoint.json, and not those of the final checkpoint."""
        config = tmp_path / "train.ini"
        periodic, single = tmp_path / "periodic", tmp_path / "single"
        write_config(config, periodic, data_dir, epochs=2, lam=0.3)
        config.write_text(config.read_text().replace(
            "learning_rate = 0.001", "learning_rate = 0.001\ncheckpoint_every = 1"))
        assert main(["train", "--config", str(config)]) == EXIT_OK
        write_config(config, single, data_dir, epochs=1, lam=0.3)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        first = (periodic / "checkpoint_epoch0001.json").read_bytes()
        assert first == (single / "checkpoint.json").read_bytes()
        assert first != (periodic / "checkpoint.json").read_bytes()

    def test_nan_in_one_leaf_gradient_is_a_numerical_abort(self, tmp_path, data_dir, capsys,
                                                           nan_in_second_step_gradient):
        """A NaN planted in one parameter's gradient in training's second step: exit 4
        with the step's snapshot, no traceback."""
        config = tmp_path / "train.ini"
        out = tmp_path / "planted"
        write_config(config, out, data_dir, epochs=1, lam=0.3)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical abort" in err and "Traceback" not in err
        snapshot = json.loads((out / "divergence.json").read_text())
        assert (snapshot["epoch"], snapshot["batch"]) == (0, 1)

    def test_a_nan_loss_with_finite_gradients_is_a_numerical_abort(
            self, tmp_path, data_dir, capsys, nan_in_second_step):
        """A NaN loss in training's second step whose gradients are finite: exit 4 with
        the step's snapshot and no traceback, caught by the loss check alone."""
        config = tmp_path / "train.ini"
        out = tmp_path / "planted"
        write_config(config, out, data_dir, epochs=1, lam=0.3)
        nan_in_second_step("loss")
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical abort" in err and "Traceback" not in err
        snapshot = json.loads((out / "divergence.json").read_text())
        assert (snapshot["epoch"], snapshot["batch"]) == (0, 1)
        assert sorted(path.name for path in out.iterdir()) == ["divergence.json",
                                                               "manifest.json"]

    @pytest.mark.parametrize("draws, code", [(32768, EXIT_DATA), (32769, EXIT_CONFIG),
                                             (999999999, EXIT_CONFIG)])
    def test_noise_draws_past_the_step_budget_refused_up_front(self, tmp_path, capsys,
                                                               draws, code):
        """batch 64 x the 64-wide decoder layer: 32,768 draws fill the 2^27-float budget
        and pass on to reading the data, which is missing (exit 3); one more draw is a
        config error naming the key. Neither allocates a step or makes the output."""
        config = tmp_path / "train.ini"
        out = tmp_path / "out"
        write_config(config, out, tmp_path / "missing")
        config.write_text(config.read_text()
                          .replace("noise_draws = 2", f"noise_draws = {draws}")
                          .replace("batch_size = 32", "batch_size = 64")
                          .replace("decoder_hidden = 16", "decoder_hidden = 64"))
        assert 32768 * 64 * 64 == cli.FLOAT_BUDGET
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert ("[train] noise_draws" in err) == (code == EXIT_CONFIG)
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("widths, holder", [
        ("99999999999", "the encoder's W0"), ("16,99999999999", "the encoder's W1"),
    ], ids=["first-layer", "second-layer"])
    def test_a_weight_matrix_past_the_budget_refused_up_front(self, tmp_path, data_dir,
                                                              capsys, widths, holder):
        """A hidden width of 10^11 makes a weight matrix of 10^11 or more floats: a config
        error naming the key, before any weight is drawn or the output made."""
        config = tmp_path / "train.ini"
        out = tmp_path / "out"
        write_config(config, out, data_dir)
        config.write_text(config.read_text().replace("encoder_hidden = 16",
                                                     f"encoder_hidden = {widths}"))
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"[model] encoder_hidden = [{widths.replace(',', ', ')}]: {holder}" in err
        assert "Traceback" not in err and not out.exists()

    def test_step_budget_counts_a_tables_classes(self, tmp_path, capsys):
        """A table's class count is known once it is read: 65 classes widen the block
        past the budget that [data] classes = 3 left room in, a config error before
        any output directory exists. Zero epochs: were the check gone, no step runs."""
        (tmp_path / "rows.csv").write_text("".join(f"{i}.0,0.5,c{i}\n" for i in range(65)))
        config = tmp_path / "run.ini"
        data, out = tmp_path / "data", tmp_path / "out"
        write_config(config, data, data, kind="table")
        config.write_text(config.read_text().replace(
            "kind = table", f"kind = table\ntrain_file = {tmp_path / 'rows.csv'}\n"
                            f"test_file = {tmp_path / 'rows.csv'}"))
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        write_config(config, out, data, epochs=0)
        config.write_text(config.read_text().replace("noise_draws = 2", "noise_draws = 32768")
                          .replace("batch_size = 32", "batch_size = 64")
                          .replace("decoder_hidden = 16", "decoder_hidden = 64"))
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[train] noise_draws" in err and "Traceback" not in err and not out.exists()

    def test_step_budget_ignores_the_data_classes_key(self, tmp_path, data_dir):
        """train reads its classes from the split, never [data] classes: 200,000,000 there
        refuses nothing when the generated split holds 3."""
        config = tmp_path / "train.ini"
        write_config(config, tmp_path / "out", data_dir, classes=200_000_000, epochs=0)
        assert main(["train", "--config", str(config)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["eval", "eval --threads 2", "compare",
                                         "validate-approx", "posterior-map"])
    def test_overflow_is_a_numerical_abort(self, tmp_path, data_dir, checkpoint, capsys,
                                           command):
        """Finite but huge decoder weights overflow: exit 4, no warning, no output."""
        doc = json.loads(checkpoint.read_text())
        doc["decoder"]["params"] = [value * 1e200 for value in doc["decoder"]["params"]]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        config = tmp_path / "eval.ini"
        out = tmp_path / "overflow_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {huge}\ncheckpoint_a = {huge}\n"
                           f"checkpoint_b = {huge}\nmc_samples = 50\nsample_limit = 8")
        capsys.readouterr()
        assert main([*command.split(), "--config", str(config)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical abort" in err and "Traceback" not in err
        assert "Warning" not in err
        assert not out.exists()

    def test_validate_approx_alias(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "taylor"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nmc_samples = 50\nsample_limit = 8")
        assert main(["validate-approx", "--config", str(config)]) == EXIT_OK
        assert (out / "taylor.csv").exists()

    def test_validate_approx_threads_flag_preserves_bytes(self, tmp_path, data_dir,
                                                          checkpoint, monkeypatch):
        """--threads 1, 2 and the default, here one worker per task of four CPUs: 40 points
        x 1,000 draws make three blocks of draws."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        config = tmp_path / "eval.ini"
        outputs = []
        for attempt, flag in (("t1", ["--threads", "1"]), ("t2", ["--threads", "2"]),
                              ("default", [])):
            out = tmp_path / f"taylor_{attempt}"
            write_config(config, out, data_dir,
                         extra=f"checkpoint = {checkpoint}\nmc_samples = 1000\n"
                               f"sample_limit = 40")
            assert main(["validate-approx", "--config", str(config), *flag]) == EXIT_OK
            outputs.append((out / "taylor.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_validate_approx_bytes_do_not_depend_on_blas_threads(self, tmp_path, data_dir,
                                                                 checkpoint):
        """Fresh interpreters at 1 and 2 OpenBLAS threads write the same taylor.csv; 120
        points x 1,200 draws make nine blocks of draws, each decoded as 16,320 rows or
        fewer at every PSNR."""
        config = tmp_path / "eval.ini"
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"taylor_blas{threads}"
            write_config(config, out, data_dir,
                         extra=f"checkpoint = {checkpoint}\nmc_samples = 1200\n"
                               f"sample_limit = 120")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            subprocess.run([sys.executable, "-m", "fisherjscc.cli", "validate-approx",
                            "--config", str(config)], env=env, check=True,
                           capture_output=True)
            outputs.append((out / "taylor.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_posterior_map_alias(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "pmap"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nresolution = 9")
        assert main(["posterior-map", "--config", str(config)]) == EXIT_OK
        assert (out / "posterior.csv").exists()


class TestSizeBudget:
    """The budget's boundary, by arithmetic on the check functions: nothing is allocated."""

    @pytest.mark.parametrize("kind, classes, dim, per_class", [
        ("rings", 2, 99, 2**25), ("rings", 3, 1, 2**27 // 6), ("blobs", 4, 8, 2**22),
        ("blobs", 5, 7, 2**27 // 35),
    ])
    def test_generated_split_at_the_budget(self, kind, classes, dim, per_class):
        """rings have 2 features whatever dim says, blobs have dim."""
        features = 2 if kind == "rings" else dim
        assert classes * per_class * features <= cli.FLOAT_BUDGET
        assert classes * (per_class + 1) * features > cli.FLOAT_BUDGET
        section = {"kind": kind, "classes": classes, "dim": dim,
                   "per_class_train": per_class, "per_class_test": per_class}
        cli._check_generated_splits(section)
        for key in ("per_class_train", "per_class_test"):
            with pytest.raises(ConfigError, match=rf"\[data\] {key} = {per_class + 1}:"):
                cli._check_generated_splits({**section, key: per_class + 1})

    def test_a_table_is_not_generated(self):
        cli._check_generated_splits({"kind": "table", "classes": 10**9, "dim": 10**9,
                                     "per_class_train": 10**9, "per_class_test": 10**9})

    @pytest.mark.parametrize("repr_dim, hidden, classes, resolution", [
        (4, (64,), 3, 1448), (4, (16,), 65, 1436), (128, (16,), 3, 1024), (4, (), 2, 5792),
    ], ids=["hidden-widest", "classes-widest", "repr_dim-widest", "no-hidden"])
    def test_map_at_the_budget(self, repr_dim, hidden, classes, resolution):
        widest = max(repr_dim, *hidden, classes)
        assert resolution**2 * widest <= cli.FLOAT_BUDGET < (resolution + 1)**2 * widest
        decoder = DecoderModel(repr_dim, classes, hidden=hidden, seed=0)
        cli._check_map_grid(resolution, decoder)
        with pytest.raises(ConfigError, match=rf"\[experiment\] resolution = {resolution + 1}:"):
            cli._check_map_grid(resolution + 1, decoder)


    @pytest.mark.parametrize("lam, repr_dim, encoder_hidden, decoder_hidden, classes, past, "
                             "key, holder", [
        (0.0, 8, [2**13, 2**14], [16], 3, {"encoder_hidden": [2**13, 2**14 + 1]},
         "encoder_hidden", "the encoder's W1"),
        (0.5, 8, [16], [2**12, 2**12], 3, {"decoder_hidden": [2**12, 2**12 + 1]},
         "decoder_hidden", "the Fisher trace's first-layers product"),
        (0.5, 8, [16], [4, 2**18], 3, {"decoder_hidden": [4, 2**18 + 1]},
         "decoder_hidden", "the Fisher trace's Jacobian"),
        (0.5, 2**10, [16], [], 2**11, {"classes": 2**11 + 1},
         "repr_dim", "the Fisher trace's Jacobian"),
    ], ids=["weight-matrix", "trace-product", "trace-jacobian", "trace-jacobian-no-hidden"])
    def test_model_arrays_at_the_budget(self, lam, repr_dim, encoder_hidden, decoder_hidden,
                                        classes, past, key, holder):
        """Each array is 2^27 floats at the first widths and one width step past the budget
        at the second: a weight matrix fan_in x fan_out; with lambda > 0 the trace's
        h0 x repr_dim x h1 product and its batch_size (64) x repr_dim x widest-width
        Jacobian, the classes where the decoder has no hidden layer."""
        def check(lam, classes, **model):
            config = {"model": {"repr_dim": repr_dim, "encoder_hidden": encoder_hidden,
                                "decoder_hidden": decoder_hidden, **model},
                      "train": {"lambda": lam, "batch_size": 64}}
            cli._check_model_arrays(config, 2, classes)

        check(lam, classes)
        classes_past = past.get("classes", classes)
        widths = {name: value for name, value in past.items() if name != "classes"}
        with pytest.raises(ConfigError, match=rf"\[model\] {key} = .*: {holder} would hold"):
            check(lam, classes_past, **widths)
        if lam:
            check(0.0, classes_past, **widths)


class TestCompareCommand:
    def test_self_compare_all_ties_and_row_count(self, tmp_path, data_dir, capsys):
        train_config = tmp_path / "train.ini"
        model_out = tmp_path / "m"
        write_config(train_config, model_out, data_dir, epochs=1)
        assert main(["train", "--config", str(train_config)]) == EXIT_OK
        ckpt = model_out / "checkpoint.json"
        config = tmp_path / "cmp.ini"
        out = tmp_path / "cmp_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint_a = {ckpt}\ncheckpoint_b = {ckpt}")
        capsys.readouterr()
        assert main(["compare", "--config", str(config)]) == EXIT_OK
        assert "a better at 0, b better at 0, ties 2 of 2 PSNRs" in capsys.readouterr().out
        rows = read_table(out / "compare.csv")
        assert len(rows) == 2  # one row per grid PSNR
        for row in rows:
            assert row["delta"] == "0.0" and row["sign"] == "tie"

    def test_manifest_records_both_checkpoints(self, tmp_path, data_dir):
        """Two checkpoints of one file name are two inputs, keyed by role."""
        config = tmp_path / "train.ini"
        for name, lam in (("ma", 0.0), ("mb", 1.0)):
            write_config(config, tmp_path / name, data_dir, epochs=1, lam=lam)
            assert main(["train", "--config", str(config)]) == EXIT_OK
        ckpt_a, ckpt_b = (tmp_path / name / "checkpoint.json" for name in ("ma", "mb"))
        out = tmp_path / "cmp_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint_a = {ckpt_a}\ncheckpoint_b = {ckpt_b}")
        assert main(["compare", "--config", str(config)]) == EXIT_OK
        inputs = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert inputs == {"checkpoint_a": sha256(ckpt_a), "checkpoint_b": sha256(ckpt_b),
                          "train.csv": sha256(data_dir / "train.csv"),
                          "test.csv": sha256(data_dir / "test.csv")}
        assert inputs["checkpoint_a"] != inputs["checkpoint_b"]


class TestTestSetShape:
    """Every checkpoint an evaluation reads must take the test split's features and
    predict its classes; otherwise the run exits 2 naming the mismatch, before any
    output directory is made."""

    @pytest.fixture()
    def splits(self, tmp_path):
        """(data dir, raw checkpoint trained on it) for rings of 3 and 5 classes and
        3-dimensional blobs of 3 classes: one with the others' features, one not."""
        made = {}
        for name, kind, classes, extra in (("rings3", "rings", 3, ""), ("rings5", "rings", 5, ""),
                                           ("blobs3", "blobs", 3, "\ndim = 3")):
            config, data, model = (tmp_path / f"{name}.ini", tmp_path / f"{name}_data",
                                   tmp_path / f"{name}_model")
            for out, command in ((data, "gen-data"), (model, "train")):
                write_config(config, out, data, kind=kind, classes=classes, epochs=1)
                config.write_text(config.read_text().replace(
                    "spread = 0.15", f"spread = 0.15\nnormalize = false{extra}"))
                assert main([command, "--config", str(config)]) == EXIT_OK
            made[name] = (data, model / "checkpoint.json")
        return made

    @pytest.mark.parametrize("kind", ["sweep", "posterior-map"])
    @pytest.mark.parametrize("model, data, message", [
        ("rings3", "rings5", "holds 5 classes, the checkpoint's decoder predicts 3"),
        ("rings5", "rings3", "holds 3 classes, the checkpoint's decoder predicts 5"),
    ], ids=["fewer-classes-than-the-split", "more-classes-than-the-split"])
    def test_eval_refuses_another_class_count(self, tmp_path, splits, capsys, kind, model,
                                              data, message):
        """The map's sample is the split's last, whose label a 3-class decoder lacks."""
        data_dir, checkpoint = splits[data][0], splits[model][1]
        config, out = tmp_path / "eval.ini", tmp_path / "eval_out"
        last = 40 * int(data[-1]) - 1
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nsample_index = {last}")
        config.write_text(config.read_text().replace("kind = sweep", f"kind = {kind}"))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("wrong", ["checkpoint_a", "checkpoint_b"])
    @pytest.mark.parametrize("model, message", [
        ("rings5", "holds 3 classes, the {}'s decoder predicts 5"),
        ("blobs3", "holds 2 features, the {}'s encoder takes 3"),
    ], ids=["classes", "features"])
    def test_compare_checks_both_checkpoints(self, tmp_path, splits, capsys, wrong, model,
                                             message):
        data_dir, right = splits["rings3"]
        checkpoints = {"checkpoint_a": right, "checkpoint_b": right, wrong: splits[model][1]}
        config, out = tmp_path / "cmp.ini", tmp_path / "cmp_out"
        write_config(config, out, data_dir, extra="\n".join(
            f"{key} = {path}" for key, path in checkpoints.items()))
        capsys.readouterr()
        assert main(["compare", "--config", str(config)]) == EXIT_CONFIG
        assert message.format(wrong) in capsys.readouterr().err
        assert not out.exists()


def unlisted_files(out: Path) -> list[str]:
    """Files in out that its manifest does not list: every file when it has none."""
    manifest = out / "manifest.json"
    listed = json.loads(manifest.read_text())["output_digests"] if manifest.exists() else {}
    return sorted(path.name for path in out.iterdir()
                  if path.name not in listed and path != manifest)


def fail_writer(patch, failing: str) -> None:
    """Make the CLI's artifact writers, once they have written the file of the artifact
    named `failing` (under any temporary suffix), raise OSError."""
    for name in ("save_table", "write_csv", "save_checkpoint"):
        def write(*args, real=getattr(cli, name), **kwargs):
            real(*args, **kwargs)
            if any(isinstance(arg, Path) and arg.name.split(".partial")[0] == failing
                   for arg in args):
                raise OSError(28, "No space left on device")
        patch.setattr(cli, name, write)


class TestPublish:
    @pytest.mark.parametrize("command, failing", [
        ("gen-data", "train.csv"), ("gen-data", "test.csv"),
        ("train", "checkpoint_epoch0001.json"), ("train", "checkpoint_epoch0002.json"),
        ("train", "checkpoint.json"), ("train", "trainlog.csv"),
        ("eval", "sweep.csv"), ("compare", "compare.csv"),
    ])
    def test_failed_write_leaves_no_partial_and_no_unlisted_artifact(
            self, tmp_path, data_dir, capsys, monkeypatch, command, failing):
        """A write that fails is exit 2 and leaves nothing behind, not even the output
        directory; under --force over a finished run it leaves every file and the
        manifest as they were."""
        config = tmp_path / "run.ini"
        model = tmp_path / "model"
        write_config(config, model, data_dir)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        checkpoint = model / "checkpoint.json"
        out = tmp_path / "out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\ncheckpoint_a = {checkpoint}\n"
                           f"checkpoint_b = {checkpoint}")
        config.write_text(config.read_text().replace(
            "learning_rate = 0.001", "learning_rate = 0.001\ncheckpoint_every = 1"))
        args = [command, "--config", str(config)]
        for force in ([], ["--force"]):
            before = {path.name: path.read_bytes() for path in out.iterdir()} if force else {}
            capsys.readouterr()
            with monkeypatch.context() as patch:
                fail_writer(patch, failing)
                assert main([*args, *force]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error" in err and "No space left" in err and "Traceback" not in err
            if force:
                assert {path.name: path.read_bytes() for path in out.iterdir()} == before
                assert unlisted_files(out) == []
            else:
                assert not out.exists()
            assert main([*args, "--force"]) == EXIT_OK
            assert failing in json.loads((out / "manifest.json").read_text())["output_digests"]

    def test_failed_publish_removes_only_the_directories_it_made(self, tmp_path):
        kept = tmp_path / "kept"
        kept.mkdir()

        def fail(path):
            raise OSError(28, "No space left on device")

        with pytest.raises(ConfigError, match="No space left"):
            cli._publish(kept / "a" / "b", "gen-data", {}, 1, {}, {"train.csv": fail})
        assert kept.is_dir() and list(kept.iterdir()) == []

    def test_publish_below_a_file_is_a_config_error(self, tmp_path):
        """Cleanup after a directory that was never made raises nothing of its own."""
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        with pytest.raises(ConfigError, match="cannot write"):
            cli._publish(taken / "sub", "gen-data", {}, 1, {},
                         {"train.csv": lambda path: path.write_text("row\n")})
        assert taken.read_text() == "keep\n"


class TestSeedOverride:
    def test_cli_seed_beats_config(self, tmp_path):
        config = tmp_path / "run.ini"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_config(config, out_a, out_a, seed=7)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        write_config(config, out_b, out_b, seed=7)
        assert main(["gen-data", "--config", str(config), "--seed", "8"]) == EXIT_OK
        assert sha256(out_a / "train.csv") != sha256(out_b / "train.csv")
