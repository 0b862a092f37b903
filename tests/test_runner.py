import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import pair_transition_matrix

from fabricprune import runner
from fabricprune.data import (
    AugmentConfig,
    ImageDataset,
    make_synthetic,
    normalize,
    stratified_split_indices,
)
from fabricprune.fabric import Fabric, load_fabric
from fabricprune.noise import (
    AnnotatorConfig,
    classification_error,
    fitting_report,
    flip_labels,
    load_noisy_labels,
    relabel_with_annotator,
    train_annotator,
)
from fabricprune.runner import (
    RECIPE_EPOCHS,
    RECIPE_LR_MILESTONES,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    NoiseConfig,
    PruneConfig,
    TrainingDiverged,
    inject_noise,
    load_run_split,
    lr_at,
    rescale_epochs,
    run_experiment,
)


def tiny_config(out_dir, **overrides):
    """A seconds-scale experiment: 4x4 images, 2-layer fabric."""
    defaults = dict(
        layers=2, channels=2, input_resolution=4, epochs=3, batch_size=16,
        learning_rate=0.05, seed=1,
        data=DataConfig(kind="synthetic", classes=3, n_per_class=20, resolution=4,
                        difficulty="easy", seed=2,
                        train_fraction=0.6, val_fraction=0.2, test_fraction=0.2),
        out_dir=str(out_dir),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# every field whose rule wants a number, or a list of numbers
NUMERIC_FIELDS = [
    "input_resolution", "layers", "channels", "batch_size", "epochs", "learning_rate",
    "momentum", "weight_decay", "seed", "data.resolution", "data.classes", "data.n_per_class",
    "data.confusable_fraction", "data.train_fraction", "data.val_fraction",
    "data.test_fraction", "data.seed", "prune.sparsity", "noise.epsilon", "noise.seed",
    "noise.annotator.layers", "noise.annotator.channels",
    "noise.annotator.batch_size", "noise.annotator.learning_rate",
    "noise.annotator.weight_decay", "noise.annotator.max_epochs", "noise.annotator.seed",
    "noise.annotator.tolerance", "augment.normalize_mean", "augment.normalize_std",
    "augment.resize", "augment.crop_size", "augment.crop_padding", "augment.flip_prob",
]


class TestLrSchedule:
    def test_paper_schedule_values(self):
        milestones = (80, 120)
        assert lr_at(10, 0.1, milestones) == 0.1
        assert lr_at(100, 0.1, milestones) == pytest.approx(0.01)
        assert lr_at(150, 0.1, milestones) == pytest.approx(0.001)

    def test_milestone_epoch_itself_keeps_rate(self):
        assert lr_at(80, 0.1, (80, 120)) == 0.1
        assert lr_at(81, 0.1, (80, 120)) == pytest.approx(0.01)


def run_milestones(epochs: int) -> list[int]:
    """The learning-rate milestones run_experiment applies over epochs."""
    return rescale_epochs(RECIPE_LR_MILESTONES, RECIPE_EPOCHS, epochs)


class TestScaleSchedule:
    def test_200_to_40_milestones(self):
        # the recipe's milestones 80 and 120 as run_experiment applies them
        milestones = run_milestones(40)
        assert milestones == rescale_epochs([80, 120], 200, 40) == [16, 24]
        rates = [lr_at(epoch, 0.1, milestones) for epoch in (16, 17, 24, 25)]
        assert rates == pytest.approx([0.1, 0.01, 0.01, 0.001])

    def test_factor_one_is_identity(self):
        assert run_milestones(200) == [80, 120]
        assert rescale_epochs([80, 120], 200, 200) == [80, 120]

    def test_default_milestones_resolve_rescaled(self):
        assert (RECIPE_LR_MILESTONES, RECIPE_EPOCHS) == ((80, 120), 200)
        assert run_milestones(40) == [16, 24]

    def test_iterative_epochs_rescale(self):
        assert rescale_epochs(range(5, 76, 10), 200, 40) == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_rescale_floors_at_one(self):
        assert rescale_epochs([5], 200, 8) == [1]


class TestConfigSerialization:
    def test_round_trip(self):
        config = tiny_config("somewhere",
                             prune=PruneConfig(strategy="early", sparsity=0.3),
                             noise=NoiseConfig(kind="annotator", epsilon=0.15,
                                               annotator=AnnotatorConfig(channels=2)),
                             augment=AugmentConfig(resize=4, crop_size=4, crop_padding=1))
        text = config.to_json()
        back = ExperimentConfig.from_dict(json.loads(text))
        assert back == config

    def test_hash_stable_and_sensitive(self):
        a = tiny_config("somewhere")
        b = tiny_config("somewhere")
        assert a.hash() == b.hash()
        b.seed += 1
        assert a.hash() != b.hash()

    def test_scales_derived_from_resolution(self):
        assert tiny_config("x", input_resolution=16).scales == 5

    @pytest.mark.parametrize("section", [(), ("data",), ("prune",), ("noise",),
                                         ("noise", "annotator"), ("augment",)],
                             ids=["top", "data", "prune", "noise", "annotator", "augment"])
    def test_unknown_field_is_named(self, section):
        config = tiny_config("somewhere", prune=PruneConfig(),
                             noise=NoiseConfig(kind="annotator"),
                             augment=AugmentConfig(resize=4, crop_size=4, crop_padding=1))
        raw = config.to_dict()
        target = raw
        for key in section:
            target = target[key]
        target["bogus"] = 1
        dotted = ".".join((*section, "bogus"))
        with pytest.raises(ConfigError, match=rf"unknown config field {re.escape(dotted)}$"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_fields_of_every_section_are_named_at_once(self):
        # an older run's config.json, with fields since removed at the top
        # level, in prune and in noise, is refused once, naming all of them
        raw = tiny_config("somewhere", prune=PruneConfig(),
                          noise=NoiseConfig(kind="annotator")).to_dict()
        raw["lr_milestones"] = [80, 120]
        raw["noise"]["annotator_train_fraction"] = 0.5
        raw["noise"]["annotator"]["bogus"] = 1
        raw["prune"]["count_cascade"] = True
        raw["prune"]["sparsity"] = 2.0  # a section error comes after the unknown fields
        expected = ("lr_milestones, prune.count_cascade, noise.annotator_train_fraction, "
                    "noise.annotator.bogus")
        with pytest.raises(ConfigError, match=rf"^unknown config field {re.escape(expected)}$"):
            ExperimentConfig.from_dict(raw)

    def test_section_must_be_an_object(self):
        raw = tiny_config("somewhere").to_dict()
        raw["data"] = [1, 2]
        with pytest.raises(ConfigError, match="section data must be an object"):
            ExperimentConfig.from_dict(raw)


    def test_override_naming_no_field_is_named(self):
        raw = tiny_config("somewhere").to_dict()
        with pytest.raises(ConfigError, match=r"^unknown config field prune\.bogus$"):
            ExperimentConfig.from_dict(raw, {"prune.bogus": 1})

    @pytest.mark.parametrize("section", [[1, 2], "x", 3])
    def test_override_into_a_non_object_section_is_named(self, section):
        raw = tiny_config("somewhere").to_dict()
        raw["prune"] = section
        with pytest.raises(ConfigError, match="section prune must be an object"):
            ExperimentConfig.from_dict(raw, {"prune.sparsity": 0.2})

    def test_overrides_fill_absent_or_null_sections_and_leave_raw_alone(self):
        raw = tiny_config("somewhere", noise=NoiseConfig(kind="uniform")).to_dict()
        before = json.dumps(raw, sort_keys=True)
        config = ExperimentConfig.from_dict(raw, {"seed": 9, "prune.strategy": "late",
                                                  "augment.crop_size": 4,
                                                  "augment.resize": 4,
                                                  "noise.annotator.seed": 5})
        assert config.seed == 9
        assert config.prune == PruneConfig(strategy="late")
        assert config.augment == AugmentConfig(resize=4, crop_size=4)
        assert config.noise == NoiseConfig(kind="uniform", annotator=AnnotatorConfig(seed=5))
        assert json.dumps(raw, sort_keys=True) == before
        assert ExperimentConfig.from_dict(raw, {"noise": None}).noise is None

    def test_section_check_is_a_config_error_naming_the_section(self):
        raw = tiny_config("somewhere").to_dict()
        raw["augment"] = {"resize": 2, "crop_size": 4}
        with pytest.raises(ConfigError, match=r"^config section augment: crop 4 larger "
                                              r"than resize 2$"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_boolean_is_not_a_number(self, field, value):
        # bool is an int in Python; a config's true or false is never a count
        # nor a rate, under any noise kind
        item = {"augment.normalize_mean": [value, 0, 0],
                "augment.normalize_std": [value, 1, 1]}.get(field, value)
        for kind in runner.NOISE_KINDS:
            raw = tiny_config("somewhere", prune=PruneConfig(), noise=NoiseConfig(kind=kind),
                              augment=AugmentConfig(resize=4, crop_size=4)).to_dict()
            with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be "):
                ExperimentConfig.from_dict(raw, {field: item})

    def test_numeric_fields_are_every_rule_but_choices_and_flags(self):
        choices = {"data.kind", "data.difficulty", "data.path", "prune.strategy",
                   "prune.criterion", "prune.gradient_source", "noise.kind"}
        assert set(NUMERIC_FIELDS) == set(runner._RULES) - choices

    def test_readme_config_block_round_trips(self):
        # a field renamed or added fails here until the README follows
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        block = json.loads(blocks[0])
        assert ExperimentConfig.from_dict(block).to_dict() == block


class TestRunExperiment:
    def test_empty_split_rejected_before_any_output(self, tmp_path):
        # 3 items per class, fractions 0.7/0.1/0.2: no class gives validation an item
        config = tiny_config(tmp_path / "run",
                             data=DataConfig(classes=3, n_per_class=3, resolution=4))
        with pytest.raises(ValueError, match="validation"):
            run_experiment(config)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,field", [
        (dict(data=DataConfig(classes=3, n_per_class=20, resolution=8)), "data.resolution"),
        (dict(augment=AugmentConfig(resize=8, crop_size=8)), "augment.crop_size"),
        (dict(input_resolution=6, data=DataConfig(resolution=6)), "input_resolution"),
        (dict(input_resolution=1, data=DataConfig(resolution=1)), "input_resolution"),
    ], ids=["data", "augment", "not-power-of-two", "one"])
    def test_resolution_mismatch_rejected_before_any_output(self, tmp_path, overrides, field):
        config = tiny_config(tmp_path / "run", **overrides)
        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            run_experiment(config)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,field", [
        (dict(batch_size=1), "batch_size"),
        (dict(batch_size=0), "batch_size"),
        (dict(noise=NoiseConfig(kind="annotator", annotator=AnnotatorConfig(batch_size=1))),
         "noise.annotator.batch_size"),
    ], ids=["one", "zero", "annotator"])
    def test_batch_size_below_two_rejected_before_any_output(self, tmp_path, overrides, field):
        # a batch of one sample is skipped, so such a run would train nothing
        config = tiny_config(tmp_path / "run", **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be an int >= 2"):
            run_experiment(config)
        assert not (tmp_path / "run").exists()

    def test_prune_section_with_zero_epochs_rejected_before_any_output(self, tmp_path):
        # no epoch would run the plan's event, yet the report would count it as run
        config = tiny_config(tmp_path / "run", epochs=0,
                             prune=PruneConfig(strategy="early", sparsity=0.1))
        with pytest.raises(ConfigError, match=r"^epochs must be an int >= 1 with a prune "
                                              r"section, else >= 0, got 0$"):
            run_experiment(config)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,field", [
        (dict(prune=PruneConfig(strategy="bogus")), "prune.strategy"),
        (dict(prune=PruneConfig(criterion="bogus")), "prune.criterion"),
        (dict(prune=PruneConfig(gradient_source="bogus")), "prune.gradient_source"),
        (dict(prune=PruneConfig(sparsity=1.5)), "prune.sparsity"),
        (dict(prune=PruneConfig(sparsity=0.0)), "prune.sparsity"),
        (dict(prune=PruneConfig(sparsity="0.1")), "prune.sparsity"),
        (dict(noise=NoiseConfig(kind="bogus")), "noise.kind"),
        (dict(weight_decay=-0.1), "weight_decay"),
        (dict(channels=1.5), "channels"),
        (dict(data=DataConfig(classes=0, resolution=4)), "data.classes"),
        (dict(noise=NoiseConfig(kind="class", epsilon=-0.1)), "noise.epsilon"),
        (dict(noise=NoiseConfig(kind="annotator", epsilon=0.0)), "noise.epsilon"),
        (dict(noise=NoiseConfig(annotator=AnnotatorConfig(layers=1))), "noise.annotator.layers"),
        (dict(noise=NoiseConfig(annotator=AnnotatorConfig(channels=0))),
         "noise.annotator.channels"),
        (dict(noise=NoiseConfig(annotator=AnnotatorConfig(weight_decay=-1))),
         "noise.annotator.weight_decay"),
        # with one class a label has no other class to flip to
        *[(dict(data=DataConfig(classes=1, resolution=4), noise=NoiseConfig(kind=kind)),
           "data.classes") for kind in ("uniform", "class", "annotator")],
    ], ids=["strategy", "criterion", "gradient-source", "sparsity-above-one",
            "sparsity-zero", "sparsity-string", "noise-kind", "weight-decay",
            "channels-float", "classes-zero", "rate-below-zero", "epsilon-zero",
            "annotator-layers", "annotator-channels", "annotator-weight-decay",
            "one-class-uniform-noise", "one-class-class-noise", "one-class-annotator-noise"])
    def test_bad_choice_rejected_before_any_output(self, tmp_path, overrides, field):
        config = tiny_config(tmp_path / "run", **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be "):
            run_experiment(config)
        assert not (tmp_path / "run").exists()

    def test_epsilon_range_depends_on_the_noise_kind(self):
        # a flip probability of 0.9 is a rate; an annotator at 3 classes can
        # only be trained to an error below the 2/3 of guessing
        for kind in ("uniform", "class"):
            tiny_config("somewhere", noise=NoiseConfig(kind=kind, epsilon=0.9)).check()
        config = tiny_config("somewhere", noise=NoiseConfig(kind="annotator", epsilon=0.9))
        with pytest.raises(ConfigError, match=r"^noise\.epsilon must be a number in \[0, 1\], "
                                              r"and in \(0, 1 - 1/data\.classes\) for "
                                              r"noise\.kind annotator, got 0\.9$"):
            config.check()

    def test_zero_epochs_writes_baseline_artifacts(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=0)
        summary = run_experiment(config)
        out = tmp_path / "run"
        assert (out / "metrics.jsonl").read_text() == ""
        assert (out / "fabric.npz").exists()
        assert (out / "fabric.dot").exists()
        assert (out / "config.json").exists()
        assert summary["alive_links"] == 11  # full L=2, S=3 grid: 7 + 4 column

    def test_metrics_records_have_expected_fields(self, tmp_path):
        config = tiny_config(tmp_path / "run")
        run_experiment(config)
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "val_error", "test_error",
                               "learning_rate", "alive_links", "live_params"}
        epochs = [json.loads(l)["epoch"] for l in lines]
        assert epochs == [1, 2, 3]

    def test_wall_time_lives_in_timings_not_metrics(self, tmp_path):
        config = tiny_config(tmp_path / "run")
        run_experiment(config)
        metrics = (tmp_path / "run" / "metrics.jsonl").read_text()
        assert "wall_time" not in metrics
        timings = (tmp_path / "run" / "timings.jsonl").read_text().splitlines()
        assert len(timings) == 3
        assert "wall_time" in timings[0]

    def test_killed_run_keeps_the_lines_of_its_finished_epochs(self, tmp_path):
        # each line is closed when it is made, so a process ended in epoch k + 1
        # leaves the first k lines of an uninterrupted run and its events so far
        k = 2
        config = tiny_config(tmp_path / "killed", epochs=8,
                             prune=PruneConfig(strategy="iterative", sparsity=0.3))
        child = f"""
import json, os, sys
from fabricprune import runner
lr_at = runner.lr_at
def exiting_lr_at(epoch, *args):
    if epoch == {k + 1}:
        os._exit(0)
    return lr_at(epoch, *args)
runner.lr_at = exiting_lr_at
runner.run_experiment(runner.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
sys.exit(1)
"""
        src = str(Path(runner.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-W", "ignore", "-c", child, config.to_json()],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        config.out_dir = str(tmp_path / "whole")
        run_experiment(config)

        def lines(run, name):
            return (tmp_path / run / name).read_text().splitlines()

        whole_events = lines("whole", "prune_events.jsonl")
        assert [json.loads(e)["epoch"] for e in whole_events] == [1, 2, 3]
        assert lines("killed", "metrics.jsonl") == lines("whole", "metrics.jsonl")[:k]
        timings = lines("killed", "timings.jsonl")
        assert [json.loads(t)["epoch"] for t in timings] == list(range(1, k + 1))
        assert lines("killed", "prune_events.jsonl") == whole_events[:k]
        assert not (tmp_path / "killed" / "fabric.npz").exists()

    def test_rerun_into_a_run_directory_replaces_its_records(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=3,
                             prune=PruneConfig(strategy="early", sparsity=0.3))
        run_experiment(config)
        first = {name: (tmp_path / "run" / name).read_text()
                 for name in ("metrics.jsonl", "prune_events.jsonl")}
        run_experiment(config)
        for name, text in first.items():
            assert (tmp_path / "run" / name).read_text() == text
        assert len((tmp_path / "run" / "timings.jsonl").read_text().splitlines()) == 3

    def test_iterative_plan_writes_eight_reports(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=40,
                             prune=PruneConfig(strategy="iterative", sparsity=0.3,
                                               criterion="magnitude"))
        run_experiment(config)
        lines = (tmp_path / "run" / "prune_events.jsonl").read_text().splitlines()
        assert len(lines) == 8
        epochs = [json.loads(l)["epoch"] for l in lines]
        assert epochs == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_live_params_never_increase(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=40,
                             prune=PruneConfig(strategy="iterative", sparsity=0.2,
                                               criterion="magnitude"))
        run_experiment(config)
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        live = [json.loads(l)["live_params"] for l in lines]
        assert all(b <= a for a, b in zip(live, live[1:]))
        assert live[-1] < live[0]

    def test_sensitivity_pruning_runs(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=4,
                             prune=PruneConfig(strategy="early", sparsity=0.5,
                                               criterion="sensitivity",
                                               gradient_source="validation"))
        summary = run_experiment(config)
        lines = (tmp_path / "run" / "prune_events.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert summary["alive_links"] < 10

    def test_determinism_byte_identical_metrics(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "a", epochs=4))
        run_experiment(tiny_config(tmp_path / "b", epochs=4))
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_different_seed_changes_metrics(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "a", epochs=2))
        run_experiment(tiny_config(tmp_path / "b", epochs=2, seed=99))
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a != b

    def test_divergence_aborts_with_diagnostic(self, tmp_path):
        # batch norm keeps plain large rates finite, so drive the weights to
        # inf through the decay term instead
        config = tiny_config(tmp_path / "run", learning_rate=1e20,
                             weight_decay=1.0, epochs=5)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
            run_experiment(config)

    def test_noise_run_writes_sidecar_and_fitting(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=2,
                             noise=NoiseConfig(kind="uniform", epsilon=0.3, seed=4))
        summary = run_experiment(config)
        out = tmp_path / "run"
        assert (out / "noisy_labels.txt").exists()
        assert (out / "fitting.json").exists()
        assert summary["noise"]["kind"] == "uniform"
        assert 0.0 <= summary["noise"]["realized_rate"] <= 1.0

    def test_noise_run_reuses_the_last_epochs_predictions(self, tmp_path, monkeypatch):
        # val and test each epoch, and nothing after: the last epoch's test
        # predictions give the final test error and the fitting report, its
        # val error the final one
        config = tiny_config(tmp_path / "run", epochs=2,
                             noise=NoiseConfig(kind="uniform", epsilon=0.3, seed=4))
        calls = []
        predict = Fabric.predict

        def spy(self, images, batch_size=256):
            calls.append(len(images))
            return predict(self, images, batch_size)

        monkeypatch.setattr(Fabric, "predict", spy)
        summary = run_experiment(config)
        monkeypatch.undo()
        assert len(calls) == 2 * config.epochs
        out = tmp_path / "run"
        dataset, (_, _, test_rows) = runner.load_split_dataset(config.data)
        test_set = load_noisy_labels(dataset, out / "noisy_labels.txt").subset(test_rows)
        predictions = load_fabric(out / "fabric.npz").predict(test_set.images)
        assert summary["final_test_error"] == float((predictions != test_set.labels).mean())
        assert summary["fitting"] == fitting_report(predictions, test_set).to_dict()

    @pytest.mark.parametrize("prune", [None, PruneConfig(strategy="early", sparsity=0.5)])
    def test_final_val_error_is_the_checkpoints(self, tmp_path, prune):
        # reused from the last epoch's record, or recomputed after a prune
        # event at the last epoch changed the fabric
        config = tiny_config(tmp_path / "run", epochs=1, prune=prune)
        summary = run_experiment(config)
        dataset, (_, val_rows, _) = runner.load_split_dataset(config.data)
        val_set = dataset.subset(val_rows)
        fabric = load_fabric(tmp_path / "run" / "fabric.npz")
        assert summary["final_val_error"] == classification_error(
            fabric, val_set.images, val_set.given_labels)
        events = (tmp_path / "run" / "prune_events.jsonl").read_text().splitlines()
        assert [json.loads(e)["epoch"] for e in events] == ([] if prune is None else [1])

    def test_augmented_run_smoke(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=2,
                             augment=AugmentConfig(resize=4, crop_size=4,
                                                   crop_padding=1, flip_prob=0.5))
        summary = run_experiment(config)
        assert summary["epochs"] == 2

    def test_augmented_run_scores_normalized_test_images(self, tmp_path):
        augment = AugmentConfig(resize=4, crop_size=4, crop_padding=1,
                                normalize_mean=(0.3, 0.4, 0.5), normalize_std=(0.1, 0.2, 0.15))
        config = tiny_config(tmp_path / "run", epochs=2, augment=augment,
                             noise=NoiseConfig(kind="uniform", epsilon=0.3, seed=4))
        summary = run_experiment(config)
        dataset, splits = runner.load_split_dataset(config.data)
        noisy, _ = inject_noise(dataset, splits, config.noise, None)
        test_set = noisy.subset(splits[2])
        images = normalize(test_set.images, augment.normalize_mean, augment.normalize_std)
        fabric = load_fabric(tmp_path / "run" / "fabric.npz")
        error = classification_error(fabric, images, test_set.labels)
        assert summary["final_test_error"] == error
        last = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[-1]
        assert json.loads(last)["test_error"] == error
        scored = load_run_split(config, "test")
        assert classification_error(fabric, scored.images, scored.labels) == error
        expected = fitting_report(fabric.predict(images), test_set).to_dict()
        assert json.loads((tmp_path / "run" / "fitting.json").read_text()) == expected

    def test_sensitivity_batches_are_normalized(self, tmp_path, monkeypatch):
        self.check_sensitivity_batches(tmp_path, monkeypatch, "validation")

    @pytest.mark.parametrize("source", ["train", "test"])
    def test_sensitivity_batches_from_any_split_are_normalized_once(self, tmp_path,
                                                                     monkeypatch, source):
        # train rows are raw and normalized per batch; test rows already are inputs
        self.check_sensitivity_batches(tmp_path, monkeypatch, source)

    @staticmethod
    def check_sensitivity_batches(tmp_path, monkeypatch, source):
        augment = AugmentConfig(resize=4, crop_size=4, crop_padding=1, normalize_std=(0.1,) * 3)
        seen = []
        sensitivity_grads = runner.sensitivity_grads

        def spy(fabric, batches):
            batches = list(batches)
            seen.extend(images for images, _ in batches)
            return sensitivity_grads(fabric, batches)

        monkeypatch.setattr(runner, "sensitivity_grads", spy)
        config = tiny_config(tmp_path / "run", epochs=1, augment=augment,
                             prune=PruneConfig(strategy="early", sparsity=0.3,
                                               criterion="sensitivity",
                                               gradient_source=source))
        run_experiment(config)
        dataset, splits = runner.load_split_dataset(config.data)
        rows = splits[runner.SPLITS.index(source)]
        expected = normalize(dataset.images[rows], augment.normalize_mean,
                             augment.normalize_std)
        np.testing.assert_array_equal(np.concatenate(seen), expected)

    def test_checkpoint_matches_final_state(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=3)
        summary = run_experiment(config)
        fabric = load_fabric(tmp_path / "run" / "fabric.npz")
        test_set = load_run_split(config, "test")
        error = classification_error(fabric, test_set.images, test_set.labels)
        assert error == pytest.approx(summary["final_test_error"])

    def test_class_noise_kind(self, tmp_path):
        # class noise is pair flips: every flip in the sidecar goes to (k + 1) mod 3
        config = tiny_config(tmp_path / "run", epochs=1,
                             noise=NoiseConfig(kind="class", epsilon=0.2, seed=5))
        summary = run_experiment(config)
        assert summary["noise"]["kind"] == "class"
        lines = (tmp_path / "run" / "noisy_labels.txt").read_text().splitlines()
        _, clean, given = np.array([line.split() for line in lines], dtype=np.int64).T
        assert (given != clean).any()
        assert (pair_transition_matrix(3, 0.2)[clean, given] > 0).all()


BELOW_ONE = dict(train_fraction=0.5, val_fraction=0.15, test_fraction=0.2)


def random_images(classes, n_per_class, resolution, **_):
    """make_synthetic's shapes in one vectorized draw, which a traced run loads quickly."""
    images = np.random.default_rng(0).random(
        (classes * n_per_class, 3, resolution, resolution), dtype=np.float32)
    return ImageDataset(images, np.repeat(np.arange(classes), n_per_class), classes)


class TestImagesHeldOnce:
    def test_rows_are_in_split_order_and_splits_are_views(self):
        data = DataConfig(classes=3, n_per_class=20, resolution=4, seed=2, **BELOW_ONE)
        dataset, splits = runner.load_split_dataset(data)
        loaded = make_synthetic(3, 20, 4, seed=2)
        items = stratified_split_indices(loaded.labels, BELOW_ONE.values(), 2)
        unused = np.setdiff1d(np.arange(60), np.concatenate(items))
        assert unused.size > 0
        np.testing.assert_array_equal(dataset.index, np.concatenate([*items, unused]))
        np.testing.assert_array_equal(dataset.images, loaded.images[dataset.index])
        np.testing.assert_array_equal(dataset.labels, loaded.labels[dataset.index])
        for rows, split_items in zip(splits, items):
            part = dataset.subset(rows)
            assert np.shares_memory(part.images, dataset.images)
            np.testing.assert_array_equal(part.index, split_items)
        assert splits[2].stop == len(dataset) - unused.size

    @pytest.mark.parametrize("kind", ["uniform", "class", "annotator"])
    def test_artifacts_name_the_items_as_loaded(self, tmp_path, kind):
        # the reference is the pipeline over the set in loaded order: splits
        # copied out by index, noise drawn over the whole set
        annotator = AnnotatorConfig(layers=2, channels=2, max_epochs=3, seed=1)
        config = tiny_config(
            tmp_path / "run", epochs=1,
            data=DataConfig(classes=3, n_per_class=40, resolution=4, difficulty="medium",
                            seed=2, **BELOW_ONE),
            noise=NoiseConfig(kind=kind, epsilon=0.3, seed=4, annotator=annotator))
        summary = run_experiment(config)
        loaded = make_synthetic(3, 40, 4, seed=2, difficulty="medium")
        items = stratified_split_indices(loaded.labels, BELOW_ONE.values(), 2)
        if kind in ("uniform", "class"):
            noisy = flip_labels(loaded, 0.3, 4, pair=kind == "class")
        else:
            fabric, info = train_annotator(loaded.subset(items[0]), loaded.subset(items[1]),
                                           0.3, annotator)
            noisy = relabel_with_annotator(loaded, fabric)
            assert summary["noise"]["annotator_holdout_error"] == info.holdout_error
            assert summary["noise"]["annotator_error_curve"] == info.error_curve
            report = json.loads((tmp_path / "run" / "report.json").read_text())
            assert report["noise"]["annotator_error_curve"] == info.error_curve
        out = tmp_path / "run"
        assert (out / "splits.txt").read_text() == "".join(
            f"{split} {item}\n" for split, split_items in enumerate(items)
            for item in split_items)
        assert (out / "noisy_labels.txt").read_text() == "".join(
            f"{item} {clean} {given}\n"
            for item, (clean, given) in enumerate(zip(noisy.labels, noisy.given_labels)))
        assert summary["noise"]["realized_rate"] == noisy.noise_rate

    def test_noisy_labels_reload_onto_the_split_order(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=1,
                             data=DataConfig(classes=3, n_per_class=20, resolution=4, seed=2,
                                             **BELOW_ONE),
                             noise=NoiseConfig(kind="uniform", epsilon=0.4, seed=4))
        run_experiment(config)
        path = tmp_path / "run" / "noisy_labels.txt"
        dataset, _ = runner.load_split_dataset(config.data)
        noisy = flip_labels(make_synthetic(3, 20, 4, seed=2), 0.4, 4)
        restored = load_noisy_labels(dataset, path)
        np.testing.assert_array_equal(restored.given_labels, noisy.given_labels[dataset.index])
        # an error names the item as loaded, not the row of that number
        item = int(np.nonzero(dataset.labels != noisy.labels)[0][0])
        lines = path.read_text().splitlines()
        clean = (noisy.labels[item] + 1) % 3
        lines[item] = f"{item} {clean} 0"
        path.write_text("\n".join(lines) + "\n")
        problem = (rf"line {item + 1}: clean label {clean} at index {item} does not match "
                   rf"the set \({noisy.labels[item]}\)")
        with pytest.raises(ValueError, match=problem):
            load_noisy_labels(dataset, path)

    @pytest.mark.parametrize("kind", [None, "uniform", "annotator"])
    def test_a_run_holds_its_images_once(self, tmp_path, monkeypatch, kind):
        # 12,000 16-px images, 37 MB, dwarf what a run holds beside them: a
        # predict slice's buffers and the split bookkeeping; splits and
        # normalized inputs are no copies
        monkeypatch.setattr(runner, "make_synthetic", random_images)
        annotator = AnnotatorConfig(layers=2, channels=1, max_epochs=1)
        config = tiny_config(
            tmp_path / "run", channels=1, input_resolution=16, epochs=1, batch_size=128,
            data=DataConfig(classes=3, n_per_class=4000, resolution=16, seed=1,
                            train_fraction=0.1, val_fraction=0.1, test_fraction=0.2),
            noise=None if kind is None else NoiseConfig(kind=kind, epsilon=0.3, seed=1,
                                                         annotator=annotator),
            augment=AugmentConfig(resize=16, crop_size=16, crop_padding=1))
        image_bytes = 12000 * 3 * 16 * 16 * 4
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * image_bytes
