import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fabricprune
from fabricprune.cli import main
from fabricprune.data import AugmentConfig
from fabricprune.fabric import build_fabric, load_fabric, save_fabric
from fabricprune.noise import AnnotatorConfig
from fabricprune.runner import (
    DataConfig,
    ExperimentConfig,
    NoiseConfig,
    PruneConfig,
    run_experiment,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_module(*argv):
    """`python -m fabricprune argv` in a child process that sees the package
    under test, whether or not the caller exports PYTHONPATH."""
    src = str(Path(fabricprune.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "fabricprune", *argv],
                          env=env, capture_output=True, text=True)


def write_config(tmp_path, **overrides):
    defaults = dict(
        layers=2, channels=2, input_resolution=4, epochs=2, batch_size=16,
        learning_rate=0.05, seed=1,
        data=DataConfig(kind="synthetic", classes=3, n_per_class=20, resolution=4,
                        difficulty="easy", seed=2,
                        train_fraction=0.6, val_fraction=0.2, test_fraction=0.2),
        out_dir=str(tmp_path / "run"),
    )
    defaults.update(overrides)
    config = ExperimentConfig(**defaults)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    return path, config


# (dotted field or section, what a config file gives it): values that used
# to fail only after config.json and splits.txt were written, with a
# traceback, or not at all
BAD_VALUES = [
    ("data.kind", {"data": {"kind": "bogus"}}),
    ("data.difficulty", {"data": {"difficulty": "bogus"}}),
    ("data.path", {"data": {"kind": "binary", "path": None}}),
    ("learning_rate", {"learning_rate": 0}),
    ("momentum", {"momentum": -1}),
    ("noise.annotator.learning_rate",
     {"noise": {"kind": "annotator", "annotator": {"learning_rate": 0}}}),
    ("layers", {"layers": 1}),
    ("channels", {"channels": 0}),
    ("noise.epsilon", {"noise": {"kind": "annotator", "epsilon": 0.9},
                       "data": {"classes": 2}}),
    ("augment", {"augment": {"resize": 2, "crop_size": 4}}),
    ("seed", {"seed": "x"}),
    ("data.seed", {"data": {"seed": -1}}),
    ("noise.seed", {"noise": {"kind": "uniform", "seed": 1.5}}),
    ("noise.annotator.seed", {"noise": {"kind": "annotator", "annotator": {"seed": "x"}}}),
    ("noise.annotator.max_epochs",
     {"noise": {"kind": "annotator", "annotator": {"max_epochs": -1}}}),
    ("augment.normalize_std",
     {"augment": {"resize": 4, "crop_size": 4, "normalize_std": [0, 0, 0]}}),
    ("data.n_per_class", {"data": {"n_per_class": 0}}),
    ("data.train_fraction", {"data": {"train_fraction": 0}}),
    ("data.val_fraction", {"data": {"val_fraction": -0.1}}),
    ("data.test_fraction", {"data": {"test_fraction": 0}}),
    ("data.confusable_fraction", {"data": {"confusable_fraction": 1.5}}),
    ("augment.crop_padding", {"augment": {"resize": 4, "crop_size": 4, "crop_padding": -3}}),
    ("epochs", {"epochs": 2.5}),
    ("noise.annotator.tolerance",
     {"noise": {"kind": "annotator", "annotator": {"tolerance": -1}}}),
    ("augment.resize", {"augment": {"resize": 4.5, "crop_size": 4}}),
]
# (case id, dotted field, patch): rules over several fields (the fractions'
# sum, an item of each class per split, epochs with and without a prune
# section) and the augment fields that either failed after config.json was
# written, escaped as a TypeError or ran on with a meaningless value
CROSS_FIELD_VALUES = [
    ("fraction-sum", "data.test_fraction", {"data": {"train_fraction": 0.9}}),
    ("item-per-split", "data.n_per_class", {"data": {"n_per_class": 2}}),
    ("mean-not-numbers", "augment.normalize_mean",
     {"augment": {"resize": 4, "crop_size": 4, "normalize_mean": ["x", 0, 0]}}),
    ("flip-above-one", "augment.flip_prob",
     {"augment": {"resize": 4, "crop_size": 4, "flip_prob": 2.0}}),
    ("epochs-not-a-number-without-prune", "epochs", {"epochs": "x"}),
    # epsilon's range depends on noise.kind: a rate for uniform and class
    ("epsilon-above-one-uniform", "noise.epsilon", {"noise": {"kind": "uniform", "epsilon": 1.5}}),
    ("epsilon-not-a-number-class", "noise.epsilon", {"noise": {"kind": "class", "epsilon": "x"}}),
    ("resize-not-a-number", "augment.resize", {"augment": {"resize": "x", "crop_size": 4}}),
    # 3 items per class at 0.7/0.1/0.2 give no class a validation item
    ("empty-validation-split", "data.n_per_class",
     {"data": {"n_per_class": 3, "train_fraction": 0.7, "val_fraction": 0.1,
               "test_fraction": 0.2}}),
]

# fields a config.json of an older run still names, with the values it recorded
REMOVED_FIELDS = {"lr_milestones": None, "prune.count_cascade": True,
                  "noise.annotator_train_fraction": 1.0, "noise.rate": 0.1}


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


# (case id, argv with {config}, {checkpoint}, {out} and {bad} filled in, the
# bytes of the unusable file at {bad}, None to leave it missing or DIRECTORY)
DIRECTORY = "directory"
INPUT_FILE_ERRORS = [
    ("junk-checkpoint-export-dot", ["export-dot", "--checkpoint", "{bad}"], b"not an npz"),
    ("npy-checkpoint-export-dot", ["export-dot", "--checkpoint", "{bad}"], npy_bytes(np.zeros(3))),
    ("directory-checkpoint-export-dot", ["export-dot", "--checkpoint", "{bad}"], DIRECTORY),
    ("directory-config-evaluate", ["evaluate", "--config", "{bad}", "--checkpoint",
                                   "{checkpoint}"], DIRECTORY),
    ("junk-checkpoint-evaluate", ["evaluate", "--config", "{config}", "--checkpoint", "{bad}"],
     b"not an npz"),
    ("missing-checkpoint", ["evaluate", "--config", "{config}", "--checkpoint", "{bad}"], None),
    ("bad-sidecar-line", ["fitting-report", "--config", "{config}", "--checkpoint",
                          "{checkpoint}", "--labels", "{bad}"], b"0 0 1\n1 one 0\n"),
    ("sidecar-not-text", ["fitting-report", "--config", "{config}", "--checkpoint",
                          "{checkpoint}", "--labels", "{bad}"], b"0 0 1\n\xff\xfe 2 2\n"),
    # the config reads {bad} as its binary records: 100 bytes, 4 px records are 49
    ("binary-records-wrong-size", ["train", "--config", "{config}", "--out", "{out}"],
     bytes(100)),
]


def out_flag(command, out_dir) -> list[str]:
    """--out for the commands that take it: prune-plan writes nothing."""
    return [] if command == "prune-plan" else ["--out", str(out_dir)]


def assert_train_fails_before_any_output(capsys, tmp_path, field, patch):
    """train on the probe config with patch merged in: exit 2, the dotted
    field named on stderr, and no run directory."""
    path, config = write_config(tmp_path)
    raw = config.to_dict()
    for key, value in patch.items():
        if isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be " in captured.err or f"section {field}:" in captured.err
    assert not out_dir.exists() and not (tmp_path / "run").exists()


class TestCountParams:
    @pytest.mark.parametrize("args,expected_total", [
        (["--layers", "8", "--channels", "64", "--resolution", "32", "--classes", "10"],
         4_523_402),
        (["--layers", "8", "--channels", "64", "--resolution", "32", "--classes", "100"],
         4_529_252),
        (["--layers", "8", "--channels", "64", "--resolution", "64", "--classes", "20"],
         5_376_340),
    ])
    def test_baseline_totals(self, capsys, args, expected_total):
        code, out = run_cli(capsys, ["count-params"] + args)
        assert code == 0
        assert json.loads(out)["total"] == expected_total

    def test_from_config(self, capsys, tmp_path):
        path, config = write_config(tmp_path)
        code, out = run_cli(capsys, ["count-params", "--config", str(path)])
        payload = json.loads(out)
        assert payload["layers"] == 2 and payload["channels"] == 2
        assert payload["total"] == payload["stem"] + payload["links"] + payload["head"]

    def test_flags_apply_on_top_of_the_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")  # 4 layers x 8 channels at 16 px
        code, out = run_cli(capsys, ["count-params", "--config", str(path), "--layers", "8",
                                     "--resolution", "32"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["layers"], payload["channels"], payload["input_resolution"]) == (8, 8, 32)

    def test_binary_run_head_has_the_configured_classes(self, capsys, tmp_path):
        # the records hold labels 0 and 1 only, under data.classes 3
        labels = np.arange(16, dtype=np.uint8) % 2
        pixels = np.random.default_rng(0).integers(0, 256, (16, 48), dtype=np.uint8)
        records = tmp_path / "records.bin"
        records.write_bytes(np.hstack([labels[:, None], pixels]).tobytes())
        data = DataConfig(kind="binary", path=str(records), classes=3, resolution=4,
                          train_fraction=0.6, val_fraction=0.2, test_fraction=0.2)
        path, config = write_config(tmp_path, epochs=1, batch_size=4, data=data)
        summary = run_experiment(config)
        assert load_fabric(tmp_path / "run" / "fabric.npz").num_classes == 3
        code, out = run_cli(capsys, ["count-params", "--config", str(path)])
        assert code == 0
        assert summary["param_total_baseline"] == json.loads(out)["total"]


class TestPrunePlan:
    def test_dry_run_prints_schedule(self, capsys, tmp_path):
        path, _ = write_config(tmp_path,
                               prune=PruneConfig(strategy="iterative", sparsity=0.3))
        code, out = run_cli(capsys, ["prune-plan", "--config", str(path),
                                     "--epochs", "200"])
        assert code == 0
        payload = json.loads(out)
        assert [e["epoch"] for e in payload["events"]] == list(range(5, 76, 10))
        assert payload["links_kept"] >= payload["min_links_kept"]
        assert payload["reported_params"] < payload["baseline_params"]
        assert sum(e["links"] for e in payload["events"]) == payload["links_to_remove"]
        assert payload["events"][-1]["live_params_ceiling"] == payload["reported_params"]

    def test_events_are_the_runs_event_epochs(self, capsys, tmp_path):
        path, config = write_config(tmp_path, epochs=40,
                                    prune=PruneConfig(strategy="iterative", sparsity=0.3))
        code, out = run_cli(capsys, ["prune-plan", "--config", str(path)])
        assert code == 0
        planned = [e["epoch"] for e in json.loads(out)["events"]]
        run_experiment(config)
        lines = (tmp_path / "run" / "prune_events.jsonl").read_text().splitlines()
        assert planned == [json.loads(line)["epoch"] for line in lines]
        assert planned == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_missing_prune_section_fails(self, capsys, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["prune-plan", "--config", str(path)]) == 2

    def test_cli_overrides(self, capsys, tmp_path):
        path, _ = write_config(tmp_path)
        code, out = run_cli(capsys, ["prune-plan", "--config", str(path),
                                     "--strategy", "early", "--sparsity", "0.5"])
        payload = json.loads(out)
        assert payload["strategy"] == "early"
        assert payload["sparsity"] == 0.5


class TestTrainAndArtifacts:
    def test_train_then_evaluate_then_dot(self, capsys, tmp_path):
        path, config = write_config(tmp_path)
        code, out = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs"] == 2

        checkpoint = str(tmp_path / "run" / "fabric.npz")
        code, out = run_cli(capsys, ["evaluate", "--config", str(path),
                                     "--checkpoint", checkpoint, "--split", "test"])
        assert code == 0
        assert json.loads(out)["error"] == pytest.approx(summary["final_test_error"])

        code, out = run_cli(capsys, ["export-dot", "--checkpoint", checkpoint])
        assert code == 0
        assert out.startswith("digraph")

    def test_train_seed_and_out_overrides(self, capsys, tmp_path):
        path, _ = write_config(tmp_path)
        override_dir = tmp_path / "elsewhere"
        code, out = run_cli(capsys, ["train", "--config", str(path),
                                     "--seed", "7", "--epochs", "1",
                                     "--out", str(override_dir)])
        assert code == 0
        assert (override_dir / "metrics.jsonl").exists()
        written = json.loads((override_dir / "config.json").read_text())
        assert written["seed"] == 7 and written["epochs"] == 1

    def test_inject_noise_and_fitting_report(self, capsys, tmp_path):
        path, config = write_config(
            tmp_path, noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=3))
        noise_dir = tmp_path / "noise"
        code, out = run_cli(capsys, ["inject-noise", "--config", str(path),
                                     "--out", str(noise_dir)])
        assert code == 0
        info = json.loads(out)
        assert info["kind"] == "uniform"
        sidecar = noise_dir / "noisy_labels.txt"
        assert sidecar.exists()

        code, out = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        checkpoint = str(tmp_path / "run" / "fabric.npz")
        code, out = run_cli(capsys, ["fitting-report", "--config", str(path),
                                     "--checkpoint", checkpoint,
                                     "--labels", str(sidecar)])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"clean_fitting", "noisy_fitting",
                                "clean_count", "noisy_count"}
        assert payload["clean_count"] + payload["noisy_count"] == 12  # test split


    def test_augmented_evaluate_and_fitting_report_match_the_run(self, capsys, tmp_path):
        # both score the checkpoint on the normalized images the run trained on
        path, _ = write_config(tmp_path, noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=3),
                               augment=AugmentConfig(resize=4, crop_size=4, crop_padding=1,
                                                     normalize_std=(0.1, 0.1, 0.1)))
        code, out = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        summary = json.loads(out)
        checkpoint = str(tmp_path / "run" / "fabric.npz")
        code, out = run_cli(capsys, ["evaluate", "--config", str(path),
                                     "--checkpoint", checkpoint])
        assert code == 0
        assert json.loads(out)["error"] == summary["final_test_error"]
        code, out = run_cli(capsys, ["fitting-report", "--config", str(path),
                                     "--checkpoint", checkpoint,
                                     "--labels", str(tmp_path / "run" / "noisy_labels.txt")])
        assert code == 0
        assert json.loads(out) == summary["fitting"]

    def test_inject_noise_prints_the_annotators_error_curve(self, capsys, tmp_path):
        annotator = AnnotatorConfig(layers=2, channels=2, max_epochs=3, seed=1)
        path, _ = write_config(tmp_path, noise=NoiseConfig(kind="annotator", epsilon=0.3,
                                                           annotator=annotator))
        code, out = run_cli(capsys, ["inject-noise", "--config", str(path)])
        assert code == 0
        info = json.loads(out)
        assert 1 <= len(info["annotator_error_curve"]) <= 4
        assert info["annotator_error_curve"][info["annotator_epoch"]] == \
            info["annotator_holdout_error"]


def write_records(path, class_sizes):
    """A file of 4-px binary records: class_sizes[c] records of class c, in class order."""
    labels = np.repeat(np.arange(len(class_sizes), dtype=np.uint8), class_sizes)
    pixels = np.random.default_rng(0).integers(0, 256, (labels.size, 48), dtype=np.uint8)
    path.write_bytes(np.hstack([labels[:, None], pixels]).tobytes())


class TestSplitRule:
    def test_binary_records_with_a_two_record_class_train(self, capsys, tmp_path):
        # class 2's two records (items 20 and 21) go to train and validation;
        # a class with fewer records than splits used to fail with a traceback
        records = tmp_path / "records.bin"
        write_records(records, [10, 10, 2])
        data = DataConfig(kind="binary", path=str(records), classes=3, resolution=4,
                          train_fraction=0.6, val_fraction=0.2, test_fraction=0.2)
        path, _ = write_config(tmp_path, data=data)
        code, _ = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        manifest = np.loadtxt(tmp_path / "run" / "splits.txt", dtype=np.int64)
        assert sorted(manifest[manifest[:, 1] >= 20, 0]) == [0, 1]

    def test_one_item_sensitivity_source_fails_before_any_output(self, capsys, tmp_path):
        # one class of 10 items at 0.6/0.1/0.3 leaves validation one item, too
        # few for train-mode batch norm; sensitivity pruning from it used to
        # fail at its first event, after splits.txt and metrics.jsonl
        data = DataConfig(classes=1, n_per_class=10, resolution=4, train_fraction=0.6,
                          val_fraction=0.1, test_fraction=0.3)
        path, _ = write_config(tmp_path, data=data,
                               prune=PruneConfig(strategy="early", criterion="sensitivity",
                                                 gradient_source="validation"))
        assert main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"invalid config {path}: data.n_per_class must be ")
        assert "the validation split holds 1 of 10 items" in line
        assert not (tmp_path / "run").exists()


class TestDivergence:
    def test_non_finite_logits_exit_1_naming_the_epoch(self, capsys, tmp_path):
        # the weights stay finite through the epoch's steps, its test predictions do not;
        # this used to exit 2, the status of an unusable input file
        path, _ = write_config(tmp_path, learning_rate=1e30,
                               data=DataConfig(classes=3, n_per_class=10, resolution=4))
        assert main(["train", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fabricprune: non-finite logits in the batch of images 0..5 "
                                "at epoch 1\n")

    def test_non_finite_parameters_exit_1_in_one_line(self, capsys, tmp_path):
        # batch norm keeps plain large rates finite, so drive the weights to
        # inf through the decay term; this used to end in a traceback
        path, _ = write_config(tmp_path, learning_rate=1e20, weight_decay=1.0, epochs=5)
        assert main(["train", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("fabricprune: parameter ") and "at epoch 1, batch" in line

    @pytest.mark.parametrize("command", ["train", "inject-noise"])
    @pytest.mark.parametrize("annotator,message", [
        (AnnotatorConfig(layers=2, channels=2, batch_size=8, learning_rate=1e30),
         "fabricprune: annotator: parameter 0 "),
        (AnnotatorConfig(learning_rate=1e30),
         "fabricprune: annotator: non-finite logits in the batch of images 0.."),
    ], ids=["parameters", "logits"])
    def test_diverging_annotator_exits_1_naming_its_epoch(self, capsys, tmp_path, command,
                                                          annotator, message):
        # the first used to end in a traceback, the second in exit 2, the
        # status of an unusable input file
        path, _ = write_config(tmp_path, noise=NoiseConfig(kind="annotator", epsilon=0.2,
                                                           annotator=annotator))
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(message) and line.endswith(" at annotator epoch 1")

    def test_a_diverging_run_prints_one_line(self, tmp_path):
        # in a process of its own, where no test harness holds back numpy's
        # overflow warnings: these used to come first, 6 lines of them
        path, _ = write_config(tmp_path, batch_size=8, epochs=1, noise=NoiseConfig(
            kind="annotator", epsilon=0.2, annotator=AnnotatorConfig(learning_rate=1e30)))
        result = run_module("train", "--config", str(path))
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("fabricprune: annotator: non-finite logits ")


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["train", "inject-noise", "prune-plan"])
    def test_unknown_field_fails_before_any_output(self, capsys, tmp_path, command):
        path, config = write_config(tmp_path, noise=NoiseConfig(kind="uniform"))
        raw = config.to_dict()
        raw["noise"]["annotator"]["bogus"] = 1
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), *out_flag(command, out_dir)]) == 2
        assert "noise.annotator.bogus" in capsys.readouterr().err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,extra", [
        ("train", ["--out"]), ("prune-plan", []), ("inject-noise", ["--out"]),
        ("count-params", []), ("evaluate", ["--checkpoint"]),
        ("fitting-report", ["--checkpoint", "--labels"]),
    ])
    @pytest.mark.parametrize("overrides,message", [
        (dict(input_resolution=24), "input_resolution must be a power of two >= 2, got 24"),
        (dict(input_resolution=8), "data.resolution must be equal to input_resolution, got 4"),
    ], ids=["not-a-power-of-two", "data-mismatch"])
    def test_bad_resolution_fails_before_any_output(self, capsys, tmp_path, command, extra,
                                                     overrides, message):
        path, _ = write_config(tmp_path, prune=PruneConfig(),
                               noise=NoiseConfig(kind="uniform"), **overrides)
        out_dir = tmp_path / "out"
        argv = [command, "--config", str(path)]
        for flag in extra:
            argv += [flag, str(out_dir / flag.strip("-"))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "inject-noise"])
    @pytest.mark.parametrize("field", ["batch_size", "noise.annotator.batch_size"])
    def test_batch_size_below_two_fails_before_any_output(self, capsys, tmp_path, command,
                                                           field):
        path, config = write_config(tmp_path, noise=NoiseConfig(kind="annotator"))
        raw = config.to_dict()
        (raw["noise"]["annotator"] if field.startswith("noise.") else raw)["batch_size"] = 1
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be an int >= 2, got 1" in captured.err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "prune-plan"])
    def test_prune_section_with_zero_epochs_fails_before_any_output(self, capsys, tmp_path,
                                                                     command):
        # the --epochs override is checked, not only the config file
        path, _ = write_config(tmp_path, prune=PruneConfig(strategy="early", sparsity=0.1))
        out_dir = tmp_path / "out"
        argv = [command, "--config", str(path), "--epochs", "0", *out_flag(command, out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epochs must be an int >= 1 with a prune section, else >= 0, got 0" in captured.err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "prune-plan", "inject-noise"])
    @pytest.mark.parametrize("section,key,field", [
        ("prune", "strategy", "prune.strategy"),
        ("prune", "gradient_source", "prune.gradient_source"),
        ("noise", "kind", "noise.kind"),
    ])
    def test_bad_choice_fails_before_any_output(self, capsys, tmp_path, command, section,
                                                key, field):
        path, config = write_config(tmp_path, prune=PruneConfig(),
                                    noise=NoiseConfig(kind="uniform"))
        raw = config.to_dict()
        raw[section][key] = "bogus"
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), *out_flag(command, out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be one of " in captured.err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,section", [("prune-plan", "prune"),
                                                 ("inject-noise", "noise")])
    def test_missing_section_fails_as_a_config_error(self, capsys, tmp_path, command, section):
        path, _ = write_config(tmp_path)  # no prune and no noise section
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), *out_flag(command, out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid config {path}: config has no {section} section\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_count_params_resolution_flag_checked(self, capsys):
        assert main(["count-params", "--resolution", "24"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input_resolution must be a power of two >= 2, got 24" in captured.err


    @pytest.mark.parametrize("field,patch", BAD_VALUES, ids=[f for f, _ in BAD_VALUES])
    def test_bad_value_fails_before_any_output(self, capsys, tmp_path, field, patch):
        assert_train_fails_before_any_output(capsys, tmp_path, field, patch)

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_removed_field_rejected(self, capsys, tmp_path, field):
        path, config = write_config(tmp_path, prune=PruneConfig(),
                                    noise=NoiseConfig(kind="annotator"))
        raw = config.to_dict()
        *section, key = field.split(".")
        (raw[section[0]] if section else raw)[key] = REMOVED_FIELDS[field]
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config field {field}" in captured.err
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,patch", [case[1:] for case in CROSS_FIELD_VALUES],
                             ids=[case[0] for case in CROSS_FIELD_VALUES])
    def test_cross_field_and_augment_rules_fail_before_any_output(self, capsys, tmp_path,
                                                                  field, patch):
        assert_train_fails_before_any_output(capsys, tmp_path, field, patch)

    @pytest.mark.parametrize("argv,content", [case[1:] for case in INPUT_FILE_ERRORS],
                             ids=[case[0] for case in INPUT_FILE_ERRORS])
    def test_unusable_input_file_is_named_in_one_line(self, capsys, tmp_path, argv, content):
        bad = tmp_path / "bad"
        if content == DIRECTORY:
            bad.mkdir()
        elif content is not None:
            bad.write_bytes(content)
        data = {}
        if "train" in argv:
            data = dict(data=DataConfig(kind="binary", path=str(bad), classes=3, resolution=4))
        path, config = write_config(tmp_path, **data)
        checkpoint = tmp_path / "fabric.npz"
        save_fabric(build_fabric(config.layers, config.scales, config.channels,
                                 config.input_resolution, config.data.classes), checkpoint)
        out_dir = tmp_path / "out"
        names = dict(config=path, checkpoint=checkpoint, out=out_dir, bad=bad)
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("fabricprune: ") and str(bad) in line
        assert "pickle" not in line
        assert not out_dir.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["evaluate", "fitting-report"])
    @pytest.mark.parametrize("name,checkpoint_value,config_value", [
        ("num_classes", 5, 3), ("input_resolution", 8, 4)])
    def test_checkpoint_that_does_not_fit_the_config_is_refused(
            self, capsys, tmp_path, command, name, checkpoint_value, config_value):
        path, config = write_config(tmp_path)
        dims = dict(layers=config.layers, scales=config.scales, channels=config.channels,
                    input_resolution=config.input_resolution, num_classes=config.data.classes)
        dims[name] = checkpoint_value
        dims["scales"] = dims["input_resolution"].bit_length()  # log2(resolution) + 1
        checkpoint = tmp_path / "fabric.npz"
        save_fabric(build_fabric(*dims.values()), checkpoint)
        argv = [command, "--config", str(path), "--checkpoint", str(checkpoint)]
        if command == "fitting-report":
            argv += ["--labels", str(tmp_path / "noisy_labels.txt")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == (f"fabricprune: checkpoint {checkpoint} has {name} {checkpoint_value}, "
                        f"config {path} has {config_value}")


class TestOverrides:
    def test_override_flags_write_the_recorded_config_bytes(self, capsys, tmp_path, monkeypatch):
        # a file with no prune and no noise section: the flags create both;
        # the digest is that of the config.json the flags wrote before from_dict applied them
        path, _ = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--config", str(path), "--seed", "7", "--epochs", "1",
                "--sparsity", "0.3", "--strategy", "early", "--criterion", "sensitivity",
                "--noise", "uniform", "--out", "run"]
        code, _ = run_cli(capsys, argv)
        assert code == 0
        digest = hashlib.sha256((tmp_path / "run" / "config.json").read_bytes()).hexdigest()
        assert digest == "28ea7dd4b3d40b452c4ae632f6414ac460bbb7166142af373b1b1f2f8b1c30ec"

    @pytest.mark.parametrize("argv", [
        ["inject-noise", "--seed", "1"], ["prune-plan", "--criterion", "sensitivity"],
        ["prune-plan", "--out", "x"], ["prune-plan", "--seed", "1"]], ids=" ".join)
    def test_flag_the_command_does_not_read_is_refused(self, capsys, tmp_path, argv):
        # the noise draws follow noise.seed and a plan writes nothing, so these did nothing
        path, _ = write_config(tmp_path, prune=PruneConfig(), noise=NoiseConfig(kind="uniform"))
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(path), *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_noise_none_drops_the_noise_section(self, capsys, tmp_path):
        path, _ = write_config(tmp_path, epochs=1,
                               noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=3))
        code, _ = run_cli(capsys, ["train", "--config", str(path), "--noise", "none"])
        assert code == 0
        assert json.loads((tmp_path / "run" / "config.json").read_text())["noise"] is None
        assert not (tmp_path / "run" / "noisy_labels.txt").exists()


    @pytest.mark.parametrize("command", ["train", "inject-noise"])
    def test_out_none_names_a_directory(self, capsys, tmp_path, monkeypatch, command):
        # only --noise none drops a section
        path, config = write_config(tmp_path, epochs=1,
                                    noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=3))
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(capsys, [command, "--config", str(path), "--out", "none"])
        assert code == 0
        assert (tmp_path / "none" / "noisy_labels.txt").exists()
        assert not (tmp_path / "run").exists()
        if command == "train":
            written = json.loads((tmp_path / "none" / "config.json").read_text())
            assert written["noise"] == config.to_dict()["noise"]

    def test_inject_noise_writes_to_the_config_out_dir(self, capsys, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=3))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, _ = run_cli(capsys, ["inject-noise", "--config", str(path)])
        assert code == 0
        assert (tmp_path / "run" / "noisy_labels.txt").exists()
        assert list(cwd.iterdir()) == []


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = run_module("count-params", "--layers", "8", "--channels", "64",
                            "--resolution", "32", "--classes", "10")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["total"] == 4_523_402
