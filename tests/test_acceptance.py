"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one `[acceptance] criterion N PASS/FAIL` line (visible
with `pytest -s` or in failure output), followed by any measurements its
test noted, such as criterion 7's realized rates and their margins. The
desk-scale runs live in module-scope fixtures so the determinism criterion
can reuse them.
"""

import functools
import json
import time

import numpy as np
import pytest

from fabricprune.cli import main as cli_main
from fabricprune.data import ImageDataset, make_synthetic
from fabricprune.fabric import build_fabric, param_breakdown
from fabricprune.noise import (
    AnnotatorConfig,
    apply_class_noise,
    apply_uniform_noise,
    fitting_report,
    uniform_transition_matrix,
)
from fabricprune.pruning import (
    Criterion,
    PruneEvent,
    apply_event,
    reported_param_count,
    sensitivity_grads,
)
from fabricprune.runner import (
    DataConfig,
    ExperimentConfig,
    NoiseConfig,
    PruneConfig,
    run_experiment,
)
from fabricprune.tensor import (
    BatchNormState,
    Parameter,
    Tensor,
    backward,
    batch_norm,
    conv2d,
    linear,
    relu6,
    softmax_cross_entropy,
    upsample_bilinear_x2,
)

from oracles import (
    dangling_links_by_rescan,
    finite_difference_grads,
    link_norm,
    max_grad_mismatch,
    path_exists,
    tensor_sum,
)


# criterion number -> measurements its test noted, printed after its verdict
NOTES: dict[int, list[str]] = {}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            notes = NOTES.setdefault(number, [])
            notes.clear()

            def verdict(word):
                print(f"\n[acceptance] criterion {number} {word}: {description}"
                      + "".join(f"; {note}" for note in notes))

            try:
                result = fn(*args, **kwargs)
            except BaseException:
                verdict("FAIL")
                raise
            verdict("PASS")
            return result

        return wrapper

    return decorate


# -- desk-scale configurations -----------------------------------------------

def desk_config(out_dir, prune=None, seed=0):
    return ExperimentConfig(
        layers=4, channels=8, input_resolution=16, epochs=40, batch_size=64,
        learning_rate=0.1, seed=seed,
        data=DataConfig(kind="synthetic", classes=3, n_per_class=150, resolution=16,
                        difficulty="easy", seed=0,
                        train_fraction=0.7, val_fraction=0.1, test_fraction=0.2),
        prune=prune, out_dir=str(out_dir))


NOISE_DATA = DataConfig(kind="synthetic", classes=3, n_per_class=300, resolution=16,
                        difficulty="medium", confusable_fraction=0.10, seed=0,
                        train_fraction=0.6, val_fraction=0.2, test_fraction=0.2)
ANNOTATOR = AnnotatorConfig(layers=3, channels=4, learning_rate=0.01,
                            weight_decay=5e-3, batch_size=64, max_epochs=100,
                            tolerance=0.01, seed=5)


def noise_config(out_dir, noise, epochs=40):
    return ExperimentConfig(
        layers=4, channels=8, input_resolution=16, epochs=epochs, batch_size=64,
        learning_rate=0.1, seed=0, data=NOISE_DATA, noise=noise,
        out_dir=str(out_dir))


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    started = time.perf_counter()
    summary = run_experiment(desk_config(out))
    return {"summary": summary, "out": out, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="module")
def pruned_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pruned")
    started = time.perf_counter()
    summary = run_experiment(desk_config(
        out, prune=PruneConfig(strategy="iterative", sparsity=0.10,
                               criterion="magnitude")))
    return {"summary": summary, "out": out, "elapsed": time.perf_counter() - started}


# -- criterion 1: baseline parameter counts ----------------------------------

@criterion(1, "count-params reproduces the three baseline totals exactly")
def test_criterion_1_parameter_count_regression(capsys):
    started = time.perf_counter()
    expected = {
        ("8", "64", "32", "10"): 4_523_402,
        ("8", "64", "32", "100"): 4_529_252,
        ("8", "64", "64", "20"): 5_376_340,
    }
    for (layers, channels, resolution, classes), total in expected.items():
        code = cli_main(["count-params", "--layers", layers, "--channels", channels,
                         "--resolution", resolution, "--classes", classes])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == total, (layers, channels, resolution, classes)
    assert time.perf_counter() - started < 1.0


# -- criterion 2: reported pruned counts --------------------------------------

@criterion(2, "floor-formula reproduces all nine reference pruned counts exactly")
def test_criterion_2_reported_count_regression():
    started = time.perf_counter()
    tables = [
        (param_breakdown(8, 6, 64, 10), {0.05: 228_611, 0.03: 138_194, 0.01: 47_778}),
        (param_breakdown(8, 6, 64, 100), {0.05: 234_461, 0.03: 144_044, 0.01: 53_628}),
        (param_breakdown(8, 7, 64, 20), {0.05: 271_876, 0.03: 164_413, 0.01: 56_951}),
    ]
    for full, expected in tables:
        for sparsity, value in expected.items():
            assert reported_param_count(full, sparsity) == value
    assert time.perf_counter() - started < 1.0


# -- criterion 3: gradient suite ----------------------------------------------

def _gradcheck(build_loss, params, tol=1e-4, step=1e-5):
    loss = build_loss()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference_grads(lambda: build_loss().item(),
                                      [p.data for p in params], step)
    mismatch = max_grad_mismatch(analytic, numeric)
    assert mismatch < tol, f"gradient mismatch {mismatch}"


@criterion(3, "finite-difference gradient suite, 20 seeds per op plus micro-fabric")
def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)

        x = Parameter(rng.standard_normal((2, 2, 4, 4)))
        w, b = Parameter(rng.standard_normal((2, 2, 3, 3))), Parameter(rng.standard_normal(2))
        stride = 1 if seed % 2 == 0 else 2
        _gradcheck(lambda: tensor_sum(conv2d(x, w, b, stride=stride)), [x, w, b])

        up_in = Parameter(rng.standard_normal((1, 2, 3, 3)))
        _gradcheck(lambda: tensor_sum(upsample_bilinear_x2(up_in)), [up_in])

        bn_in = Parameter(rng.standard_normal((3, 2, 3, 3)))
        gamma = Parameter(rng.standard_normal(2) + 1.5)
        beta = Parameter(rng.standard_normal(2))
        mode = "train" if seed % 2 == 0 else "eval"
        base_state = BatchNormState(rng.standard_normal(2) * 0.1, rng.random(2) + 0.5)

        def bn_loss():
            state = BatchNormState(base_state.running_mean.copy(),
                                   base_state.running_var.copy())
            return tensor_sum(batch_norm(bn_in, gamma, beta, state, mode))

        _gradcheck(bn_loss, [bn_in, gamma, beta])

        relu_in = Parameter(rng.standard_normal((4, 4)) * 2.5)
        relu_in.data += 0.01 * np.sign(relu_in.data)  # step off the kinks
        relu_in.data[np.abs(relu_in.data - 6.0) < 0.01] += 0.05
        _gradcheck(lambda: tensor_sum(relu6(relu_in)), [relu_in])

        lin_in = Parameter(rng.standard_normal((3, 4)))
        lw, lb = Parameter(rng.standard_normal((5, 4))), Parameter(rng.standard_normal(5))
        targets = rng.integers(0, 5, size=3)
        _gradcheck(lambda: softmax_cross_entropy(linear(lin_in, lw, lb), targets),
                   [lin_in, lw, lb])

    # end-to-end: every parameter of a 2x2 micro-fabric against central
    # differences through the full forward pass
    fabric = build_fabric(2, 2, 1, 2, 3, seed=7, dtype=np.float64)
    images = np.random.default_rng(11).random((2, 3, 2, 2))
    labels = np.array([0, 2])
    all_params = fabric.parameters()

    def fabric_loss():
        return softmax_cross_entropy(fabric.forward(images, mode="train"), labels)

    loss = fabric_loss()
    backward(loss)
    analytic = [p.grad.copy() for p in all_params]
    numeric = finite_difference_grads(lambda: fabric_loss().item(),
                                      [p.data for p in all_params], 1e-5)
    assert max_grad_mismatch(analytic, numeric) < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion 4: graph invariants over randomized pruning ---------------------

@criterion(4, "200 randomized pruning sequences keep every graph invariant")
def test_criterion_4_graph_invariants():
    started = time.perf_counter()
    for seq in range(200):
        rng = np.random.default_rng(seq)
        layers = int(rng.integers(2, 6))
        scales = int(rng.integers(2, 5))
        fabric = build_fabric(layers, scales, 1, 2 ** (scales - 1), 2, seed=seq)
        goal = (layers - 1, scales - 1)

        for event_idx in range(int(rng.integers(1, 4))):
            quota_links = int(rng.integers(0, len(fabric.alive_links()) + 1))
            quota_weights = int(rng.integers(0, 40))
            report = apply_event(
                fabric, PruneEvent(event_idx, quota_links, quota_weights),
                Criterion.MAGNITUDE)

            edges = [(l.src, l.dst) for l in fabric.alive_links()]
            assert path_exists(edges, (0, 0), goal), f"seq {seq}: disconnected"
            assert dangling_links_by_rescan(edges, (0, 0), goal) == set(), \
                f"seq {seq}: dangling links survive"
            for link in fabric.alive_links():
                assert link.unmasked_weight_count() >= 1, f"seq {seq}: all-zero filter"
            if report.link_shortfall == 0:
                assert report.links_removed == report.link_quota
            if report.weight_shortfall == 0:
                assert report.masked_weights == report.weight_quota
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"graph invariant suite took {elapsed:.1f}s"


# -- criterion 5: small-instance oracle equivalence ----------------------------

def _connectivity_table(edges, start, goal):
    """Connectivity of every subset of a tiny link set, by enumeration."""
    table = {}
    n = len(edges)
    for bits in range(1 << n):
        subset = [edges[i] for i in range(n) if bits & (1 << i)]
        table[bits] = path_exists(subset, start, goal)
    return table


def _greedy_oracle(edges, scores, n, start, goal, table):
    alive = set(range(len(edges)))

    def connected(indices):
        bits = 0
        for i in indices:
            bits |= 1 << i
        return table[bits]

    order = sorted(range(len(edges)), key=lambda i: (scores[i], i))
    killed, cascaded = [], []
    remaining = n
    for i in order:
        if remaining <= 0:
            break
        if i not in alive:
            continue
        candidate = alive - {i}
        if not connected(candidate):
            continue
        sub = sorted(candidate)
        closure = {sub[k] for k in dangling_links_by_rescan(
            [edges[j] for j in sub], start, goal)}
        if 1 + len(closure) > remaining:
            continue
        alive = candidate - closure
        killed.append(i)
        cascaded.extend(sorted(closure))
        remaining -= 1 + len(closure)
    return killed, cascaded, alive


@criterion(5, "2x2 fabric selection matches the exhaustive greedy oracle, both criteria")
def test_criterion_5_small_instance_oracles():
    started = time.perf_counter()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        for crit in (Criterion.MAGNITUDE, Criterion.SENSITIVITY):
            fabric = build_fabric(2, 2, 1, 2, 2, seed=seed, dtype=np.float64)
            for link in fabric.links:
                link.conv_weight.data[:] = rng.standard_normal((1, 1, 3, 3))
            weight_scores = None
            if crit is Criterion.SENSITIVITY:
                images = rng.random((4, 3, 2, 2))
                labels = rng.integers(0, 2, size=4)
                weight_scores = sensitivity_grads(fabric, [(images, labels)])
            per_weight = weight_scores or {l.index: np.abs(l.conv_weight.data)
                                           for l in fabric.links}
            scores = [link_norm(per_weight[l.index]) for l in fabric.links]
            edges = [(l.src, l.dst) for l in fabric.links]
            table = _connectivity_table(edges, (0, 0), (1, 1))
            n = int(rng.integers(1, 6))

            expected = _greedy_oracle(edges, scores, n, (0, 0), (1, 1), table)
            report = apply_event(fabric, PruneEvent(1, n, 0), crit, weight_scores)
            assert report.killed_links == expected[0], (seed, crit)
            assert sorted(report.cascade_links) == sorted(expected[1]), (seed, crit)
            assert {l.index for l in fabric.alive_links()} == expected[2], (seed, crit)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"small-instance suite took {elapsed:.1f}s"


# -- criterion 6: desk-scale end-to-end ----------------------------------------

@criterion(6, "desk-scale baseline <= 10% error; 0.10-sparsity pruning within 8 points")
def test_criterion_6_desk_scale(baseline_run, pruned_run):
    baseline_error = baseline_run["summary"]["final_test_error"]
    pruned_error = pruned_run["summary"]["final_test_error"]
    assert baseline_error <= 0.10, f"baseline test error {baseline_error}"
    assert pruned_error - baseline_error <= 0.08, \
        f"pruning degraded error {baseline_error} -> {pruned_error}"
    assert pruned_run["summary"]["alive_links"] < 47
    assert pruned_run["summary"]["live_params"] < baseline_run["summary"]["live_params"]
    total = baseline_run["elapsed"] + pruned_run["elapsed"]
    assert total < 900.0, f"desk-scale runs took {total:.0f}s"


# -- criterion 7: noise suite ---------------------------------------------------

@criterion(7, "noise rates in bounds, annotator hits targets, Type-3 outlearns Type-1")
def test_criterion_7_noise_suite(tmp_path_factory):
    started = time.perf_counter()

    # Type 1: flip rate within 3-sigma binomial bounds on 10,000 labels
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, 10_000)
    images = np.zeros((10_000, 3, 2, 2), dtype=np.float32)
    base = ImageDataset(images, labels.copy(), 10, labels.copy())
    uniform = apply_uniform_noise(base, 0.2, seed=3)
    sigma = np.sqrt(0.2 * 0.8 / 10_000)
    assert abs(uniform.noise_rate - 0.2) <= 3 * sigma

    # Type 2: symmetric transition matrix at the same rate
    classnoise = apply_class_noise(base, uniform_transition_matrix(10, 0.2), seed=4)
    assert abs(classnoise.noise_rate - 0.2) <= 3 * sigma

    # fitting_report on constructed 10-item cases, exactly
    clean = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
    given = np.array([0, 0, 1, 1, 2, 2, 1, 2, 0, 2])
    preds = np.array([0, 1, 1, 1, 2, 0, 1, 1, 0, 0])
    ten = ImageDataset(np.zeros((10, 3, 2, 2), dtype=np.float32), clean, 3, given)
    report = fitting_report(preds, ten)
    assert report.clean_fitting == pytest.approx(4 / 6)
    assert report.noisy_fitting == pytest.approx(2 / 4)

    perfect = fitting_report(clean.copy(), ImageDataset(
        np.zeros((10, 3, 2, 2), dtype=np.float32), clean, 3, clean.copy()))
    assert perfect.clean_fitting == 1.0 and perfect.noisy_fitting is None

    # Type 3: annotator relabeling lands within +/-0.03 of both paper
    # epsilons; 0.10 is read off the Type-3 victim run below, which trains
    # the same annotator, and 0.20 off an injection-only run
    def assert_realized_in_band(summary, eps):
        realized = summary["noise"]["realized_rate"]
        # the margin, in rate, to the nearer edge of the band; negative outside
        NOTES[7].append(f"epsilon {eps:.2f} realized {realized:.4f}, "
                        f"{0.03 - abs(realized - eps):+.4f} inside the band")
        assert abs(realized - eps) <= 0.03, \
            f"epsilon {eps}: realized mislabel fraction {realized:.3f}"

    assert_realized_in_band(run_experiment(noise_config(
        tmp_path_factory.mktemp("inject_20"),
        NoiseConfig(kind="annotator", epsilon=0.20, seed=3, annotator=ANNOTATOR),
        epochs=0)), 0.20)

    # directional check: at equal epsilon, a trained model absorbs
    # feature-dependent noise but not uniform noise
    eps = 0.10
    t3 = run_experiment(noise_config(
        tmp_path_factory.mktemp("victim_t3"),
        NoiseConfig(kind="annotator", epsilon=eps, seed=3, annotator=ANNOTATOR)))
    assert_realized_in_band(t3, eps)
    t1 = run_experiment(noise_config(
        tmp_path_factory.mktemp("victim_t1"),
        NoiseConfig(kind="uniform", epsilon=eps, seed=3)))
    t3_fit = t3["fitting"]["noisy_fitting"]
    t1_fit = t1["fitting"]["noisy_fitting"]
    assert t3_fit is not None and t1_fit is not None
    assert t3_fit > t1_fit, f"Type-3 noisy fitting {t3_fit} vs Type-1 {t1_fit}"

    elapsed = time.perf_counter() - started
    assert elapsed < 1200.0, f"noise suite took {elapsed:.0f}s"


# -- criterion 8: determinism ----------------------------------------------------

@criterion(8, "identical seeds reproduce metrics.jsonl byte for byte")
def test_criterion_8_determinism(pruned_run, tmp_path_factory):
    rerun_dir = tmp_path_factory.mktemp("pruned_rerun")
    run_experiment(desk_config(
        rerun_dir, prune=PruneConfig(strategy="iterative", sparsity=0.10,
                                     criterion="magnitude")))
    first = (pruned_run["out"] / "metrics.jsonl").read_bytes()
    second = (rerun_dir / "metrics.jsonl").read_bytes()
    assert first == second
    assert (pruned_run["out"] / "prune_events.jsonl").read_bytes() == \
        (rerun_dir / "prune_events.jsonl").read_bytes()
