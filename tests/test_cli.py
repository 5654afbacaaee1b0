"""End-to-end CLI behaviour: strict configs, manifests, reproducibility."""

import hashlib
import json

import pytest

from fisherjscc.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, ConfigError,
                            load_config, main)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        assert not (out / "checkpoint.json").exists()

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
        for entry in doc["decoder"]["params"].values():
            entry["data"] = [0.0] * len(entry["data"])
        (model_out / "checkpoint.json").write_text(json.dumps(doc))
        eval_config = tmp_path / "eval.ini"
        out = tmp_path / "eval3"
        write_config(eval_config, out, data_dir,
                     extra=f"checkpoint = {model_out / 'checkpoint.json'}")
        assert main(["eval", "--config", str(eval_config)]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        for row in rows:
            error = float(row.split(",")[3])
            assert abs(error - (1.0 - 1.0 / 3.0)) <= 0.02

    @pytest.mark.parametrize("defect", ["nan_weight", "wrong_format"])
    def test_bad_checkpoint_is_a_data_error(self, tmp_path, data_dir, checkpoint,
                                            capsys, defect):
        doc = json.loads(checkpoint.read_text())
        if defect == "nan_weight":
            doc["decoder"]["params"]["W0"]["data"][0] = float("nan")
        else:
            doc["format"] = "something-else"
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(doc))
        config = tmp_path / "eval.ini"
        out = tmp_path / "eval_bad"
        write_config(config, out, data_dir, extra=f"checkpoint = {bad}")
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

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
        ("eval", [("family = awgn", "family = rician")], "[channel] family"),
        ("compare", [("family = awgn", "family = rician")], "[channel] family"),
        ("validate-approx", [("family = awgn", "family = rician")], "[channel] family"),
        ("validate-approx", [("family = awgn", "family = rayleigh")], "awgn only"),
        ("train", [("trials = 3", "trials = 3\ntrials = 4")], "malformed config"),
        ("eval", [("[experiment]", "[run]\nseed = 3\n\n[experiment]")], "malformed config"),
        ("gen-data", [("[run]\nseed = 7", "seed = 7\n[run]\nseed = 7")], "malformed config"),
        ("validate-approx", [("mc_samples = 50", "mc_samples = 10")], "samples"),
        ("validate-approx", [("sample_limit = 8", "sample_limit = 0")], "sample_limit"),
        ("eval", [("trials = 3", "trials = 0")], "trials"),
        ("eval", [("psnr_grid = 5,15", "psnr_grid = 5,5")], "duplicate sweep cell"),
        ("compare", [("trials = 3", "trials = 0")], "trials"),
        ("compare", [("psnr_grid = 5,15", "psnr_grid = 5,5")], "duplicate sweep cell"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nresolution = 7")],
         "resolution"),
        ("posterior-map", [("sample_limit = 8", "sample_limit = 8\nsample_index = 9999")],
         "sample_index"),
    ], ids=["gen-data-kind", "train-family", "train-psnr_mode", "train-lambda",
            "train-noise_draws", "train-rayleigh-penalty", "eval-kind", "eval-family",
            "compare-family", "validate-approx-family", "validate-approx-rayleigh",
            "duplicate-key", "duplicate-section", "no-section-header",
            "validate-approx-mc_samples", "validate-approx-sample_limit", "eval-trials",
            "eval-duplicate-psnr", "compare-trials", "compare-duplicate-psnr",
            "posterior-map-resolution", "posterior-map-sample_index"])
    def test_bad_config_is_a_config_error(self, tmp_path, data_dir, checkpoint, capsys,
                                          command, edits, fragment):
        """Exit 2 before any output directory exists, without a traceback."""
        config = tmp_path / "bad.ini"
        out = tmp_path / "bad_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\ncheckpoint_a = {checkpoint}\n"
                           f"checkpoint_b = {checkpoint}\nmc_samples = 50\nsample_limit = 8")
        text = config.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        config.write_text(text)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and fragment in err and "Traceback" not in err
        assert not out.exists()

    def test_threads_flag_preserves_bytes(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        outputs = []
        for attempt, threads in (("t1", "1"), ("t2", "2")):
            out = tmp_path / f"eval_{attempt}"
            write_config(config, out, data_dir, extra=f"checkpoint = {checkpoint}")
            assert main(["eval", "--config", str(config), "--threads", threads]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_periodic_checkpoints_written(self, tmp_path, data_dir):
        config = tmp_path / "train.ini"
        out = tmp_path / "periodic"
        write_config(config, out, data_dir, epochs=2,
                     extra="")
        text = config.read_text().replace("learning_rate = 0.001",
                                          "learning_rate = 0.001\ncheckpoint_every = 1")
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert (out / "checkpoint_epoch0001.json").exists()
        assert (out / "checkpoint_epoch0002.json").exists()

    def test_validate_approx_alias(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "taylor"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nmc_samples = 50\nsample_limit = 8")
        assert main(["validate-approx", "--config", str(config)]) == EXIT_OK
        assert (out / "taylor.csv").exists()

    def test_posterior_map_alias(self, tmp_path, data_dir, checkpoint):
        config = tmp_path / "eval.ini"
        out = tmp_path / "pmap"
        write_config(config, out, data_dir,
                     extra=f"checkpoint = {checkpoint}\nresolution = 9")
        assert main(["posterior-map", "--config", str(config)]) == EXIT_OK
        assert (out / "posterior.csv").exists()


class TestCompareCommand:
    def test_self_compare_all_ties_and_row_count(self, tmp_path, data_dir):
        train_config = tmp_path / "train.ini"
        model_out = tmp_path / "m"
        write_config(train_config, model_out, data_dir, epochs=1)
        assert main(["train", "--config", str(train_config)]) == EXIT_OK
        ckpt = model_out / "checkpoint.json"
        config = tmp_path / "cmp.ini"
        out = tmp_path / "cmp_out"
        write_config(config, out, data_dir,
                     extra=f"checkpoint_a = {ckpt}\ncheckpoint_b = {ckpt}")
        assert main(["compare", "--config", str(config)]) == EXIT_OK
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # schema, header, one row per grid PSNR
        for row in lines[2:]:
            assert row.split(",")[4] == "0.0"
            assert row.endswith("tie")


class TestSeedOverride:
    def test_cli_seed_beats_config(self, tmp_path):
        config = tmp_path / "run.ini"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_config(config, out_a, out_a, seed=7)
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        write_config(config, out_b, out_b, seed=7)
        assert main(["gen-data", "--config", str(config), "--seed", "8"]) == EXIT_OK
        assert sha256(out_a / "train.csv") != sha256(out_b / "train.csv")
