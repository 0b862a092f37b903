import itertools
import json
import warnings
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabricprune.fabric import (
    Direction,
    FabricError,
    build_fabric,
    clone_parameters,
    longest_linear_path,
    param_breakdown,
)
from fabricprune.pruning import (
    Criterion,
    PruneEvent,
    PrunePlan,
    PruneReport,
    Strategy,
    _links_on_paths,
    apply_event,
    build_plan,
    link_condition,
    reported_param_count,
    sensitivity_grads,
)
from fabricprune.runner import DataConfig, ExperimentConfig, PruneConfig, run_experiment
from fabricprune.tensor import UsageError, backward, softmax_cross_entropy

from oracles import (
    dangling_links_by_rescan,
    finite_difference_grads,
    link_norm,
    links_on_some_path,
    longest_path_exhaustive,
    path_exists,
    plan_reference,
    weight_stage_reference,
)


def tiny_fabric(layers=2, scales=2, channels=1, seed=0, dtype=np.float64):
    return build_fabric(layers, scales, channels, 2 ** (scales - 1),
                        num_classes=2, seed=seed, dtype=dtype)


def killing(fabric, n):
    """An event whose link ceiling is n below the alive links and whose
    parameter ceiling masks no weight."""
    return PruneEvent(1, len(fabric.alive_links()) - n, fabric.live_param_count())


def masking(fabric, n, epoch=1):
    """An event whose link ceiling is the alive links and whose parameter
    ceiling masks n weights."""
    return PruneEvent(epoch, len(fabric.alive_links()), fabric.live_param_count() - n)


def set_link_weights(fabric, values):
    """Give link i all-equal conv weights values[i] (distinct magnitudes)."""
    for link, v in zip(fabric.links, values):
        link.conv_weight.data[:] = v


class TestScoreMap:
    """apply_event scores every alive link's weights once: |w| under
    magnitude, the passed weight_scores under sensitivity. The link stage
    ranks links by the Euclidean norm of their scores, the weight stage
    ranks the scores themselves."""

    def test_magnitude_scores_are_absolute_values(self):
        fabric = weight_stage_fabric((-2.5, 1.0, 3.0), unmasked=(0, 1, 2))
        apply_event(fabric, masking(fabric, 1), Criterion.MAGNITUDE)
        np.testing.assert_array_equal(
            fabric.links[0].conv_weight.mask.reshape(-1), [1, 0, 1, 0, 0, 0, 0, 0, 0])

    def test_magnitude_ignores_weight_scores(self):
        def event(weight_scores):
            fabric = build_fabric(3, 3, 1, 4, 2, seed=12)
            # three links of 12 params go, then 10 weights are masked
            report = apply_event(fabric, PruneEvent(1, len(fabric.links) - 3,
                                                    fabric.live_param_count() - 46),
                                 Criterion.MAGNITUDE, weight_scores)
            return report.to_json(), fabric.state()

        inverted = {l.index: -np.abs(l.conv_weight.data)
                    for l in build_fabric(3, 3, 1, 4, 2, seed=12).links}
        (report, state), (report_scored, state_scored) = event(None), event(inverted)
        assert report == report_scored
        for key, value in state.items():
            np.testing.assert_array_equal(state_scored[key], value, err_msg=key)

    @pytest.mark.parametrize("quotas", [(1, 0), (0, 1)])
    def test_sensitivity_without_scores_raises(self, quotas):
        # (links to kill, weights to mask)
        fabric = tiny_fabric()
        event = PruneEvent(1, len(fabric.links) - quotas[0],
                           fabric.live_param_count() - quotas[1])
        with pytest.raises(UsageError, match="per-weight scores"):
            apply_event(fabric, event, Criterion.SENSITIVITY)

    def test_sensitivity_without_scores_and_quota_is_a_no_op(self):
        fabric = tiny_fabric()
        report = apply_event(fabric, killing(fabric, 0), Criterion.SENSITIVITY)
        assert report.killed_links == [] and report.masked_weights == 0

    def test_link_score_is_the_euclidean_norm(self):
        # link 1's scores (3, -4) have norm 5, below link 2's single 5.5 but
        # above it in L1; on the 2x2 grid one link can go without a cascade
        fabric = tiny_fabric()
        scores = {l.index: np.full((1, 1, 3, 3), 9.0) for l in fabric.links}
        scores[1] = np.zeros((1, 1, 3, 3))
        scores[1][0, 0, 0, 0], scores[1][0, 0, 2, 2] = 3.0, 4.0
        scores[2] = np.zeros((1, 1, 3, 3))
        scores[2][0, 0, 1, 1] = 5.5
        report = apply_event(fabric, killing(fabric, 1), Criterion.SENSITIVITY, scores)
        assert report.killed_links == [1]
        assert link_norm(scores[1]) == 5.0

    def test_all_zero_link_ranks_first(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [1.0, 2.0, 3.0, 0.0, 5.0, 6.0])
        report = apply_event(fabric, killing(fabric, 1), Criterion.MAGNITUDE)
        assert report.killed_links == [3]

    def test_sensitivity_ranks_by_weight_scores_not_weights(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        scores = {l.index: np.full((1, 1, 3, 3), 6.0 - l.index) for l in fabric.links}
        # link 3's 12 params go, then one weight is masked
        report = apply_event(fabric, PruneEvent(1, 5, fabric.live_param_count() - 13),
                             Criterion.SENSITIVITY, scores)
        # killing 5 or 4 would sweep two more links away: below the ceiling of 5
        assert report.skipped_links == [(5, "cascade_overshoot"), (4, "cascade_overshoot")]
        assert report.killed_links == [3]
        (masked,) = [l for l in fabric.alive_links() if l.conv_weight.mask is not None]
        assert masked.index == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_magnitude_event_equals_sensitivity_on_absolute_weights(self, seed):
        def event(criterion):
            fabric = build_fabric(4, 3, 2, 4, 2, seed=seed)
            for link in fabric.links[::5]:
                link.conv_weight.set_mask(
                    (np.random.default_rng(seed).random((2, 2, 3, 3)) > 0.4)
                    .astype(np.float32))
            weight_scores = {l.index: np.abs(l.conv_weight.data)
                             for l in fabric.alive_links()}
            report = apply_event(fabric, PruneEvent(1, len(fabric.links) - 6,
                                                    fabric.live_param_count() // 2),
                                 criterion, weight_scores=weight_scores)
            return report, fabric

        (magnitude, ours), (sensitivity, theirs) = \
            event(Criterion.MAGNITUDE), event(Criterion.SENSITIVITY)
        assert magnitude.killed_links and magnitude.masked_weights > 0
        assert magnitude.weight_shortfall == 0
        assert magnitude.to_json() == sensitivity.to_json()
        assert [l.alive for l in ours.links] == [l.alive for l in theirs.links]
        for a, b in zip(ours.links, theirs.links):
            assert (a.conv_weight.mask is None) == (b.conv_weight.mask is None)
            if a.conv_weight.mask is not None:
                np.testing.assert_array_equal(a.conv_weight.mask, b.conv_weight.mask)


def _batch(fabric, rng, n=4):
    images = rng.random((n, 3, fabric.input_resolution, fabric.input_resolution))
    labels = rng.integers(0, fabric.num_classes, size=n)
    return images, labels


class TestSensitivityGrads:
    def test_duplicated_batch_equals_single(self):
        fabric = tiny_fabric(seed=5)
        batch = _batch(fabric, np.random.default_rng(0))
        single = sensitivity_grads(fabric, [batch])
        double = sensitivity_grads(fabric, [batch, batch])
        for index in single:
            np.testing.assert_allclose(single[index], double[index], rtol=1e-12)

    def test_parameters_and_stats_untouched(self):
        fabric = tiny_fabric(seed=6)
        batch = _batch(fabric, np.random.default_rng(1))
        before = clone_parameters(fabric)
        sensitivity_grads(fabric, [batch])
        after = fabric.state()
        assert list(after) == list(before)
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)

    def test_zero_gradient_weights_score_zero(self):
        fabric = tiny_fabric(seed=7)
        # silence both consumers of node (0, 1): with gamma = beta = 0 nothing
        # downstream depends on the column link feeding it
        column = next(l for l in fabric.links if l.src == (0, 0) and l.dst == (0, 1))
        for link in fabric.links:
            if link.src == (0, 1):
                link.bn_gamma.data[:] = 0.0
                link.bn_beta.data[:] = 0.0
        scores = sensitivity_grads(fabric, [_batch(fabric, np.random.default_rng(2))])
        assert np.all(scores[column.index] == 0.0)
        assert np.abs(column.conv_weight.data).max() > 0.0

    def test_empty_source_raises(self):
        with pytest.raises(UsageError):
            sensitivity_grads(tiny_fabric(), [])

    def test_scores_are_absolute_weight_times_grad(self):
        fabric = tiny_fabric(seed=10)
        images, labels = _batch(fabric, np.random.default_rng(6))
        scores = sensitivity_grads(fabric, [(images, labels)])
        for p in fabric.parameters():
            p.zero_grad()
        fabric.loss_backward(images, labels)
        for link in fabric.links:
            w = link.conv_weight
            np.testing.assert_array_equal(scores[link.index], np.abs(w.data * w.grad))

    def test_nan_images_raise_and_leave_the_fabric_untouched(self):
        fabric = tiny_fabric(seed=9)
        images, labels = _batch(fabric, np.random.default_rng(4))
        images[0, 0, 0, 0] = np.nan
        before = clone_parameters(fabric)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite loss"):
            sensitivity_grads(fabric, [_batch(fabric, np.random.default_rng(5)),
                                       (images, labels)])
        for key, value in before.items():
            np.testing.assert_array_equal(fabric.state()[key], value, err_msg=key)
        assert all(not p.grad.any() for p in fabric.parameters())

    def test_matches_finite_difference_oracle(self):
        fabric = tiny_fabric(seed=8, dtype=np.float64)
        images, labels = _batch(fabric, np.random.default_rng(3))
        scores = sensitivity_grads(fabric, [(images, labels)])

        def loss_value():
            # train-mode loss only depends on batch statistics, so the
            # running-stat side effects cannot perturb the differences
            logits = fabric.forward(images, mode="train")
            return softmax_cross_entropy(logits, labels).item()

        for link in fabric.links:
            fd = finite_difference_grads(loss_value, [link.conv_weight.data], 1e-5)[0]
            expected = np.abs(link.conv_weight.data * fd)
            np.testing.assert_allclose(scores[link.index], expected, rtol=1e-2, atol=1e-8)


class TestLinkCondition:
    def test_empty_set_true(self):
        assert link_condition(tiny_fabric(), set()) is True

    def test_cutting_input_outputs_false(self):
        fabric = tiny_fabric()
        cut = {l.index for l in fabric.links if l.src == (0, 0)}
        assert link_condition(fabric, cut) is False

    @pytest.mark.parametrize("seed", range(25))
    def test_random_sets_agree_with_dfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        fabric = build_fabric(3, 2, 1, 2, 2)
        proposed = {l.index for l in fabric.links if rng.random() < 0.4}
        remaining = [(l.src, l.dst) for l in fabric.links if l.index not in proposed]
        expected = path_exists(remaining, (0, 0), (2, 1))
        assert link_condition(fabric, proposed) == expected


class TestCascade:
    """The cascade a link-stage kill sweeps away: apply_event's cascade_links,
    and _links_on_paths, from which the link stage computes it."""

    def test_orphan_chain_removal(self):
        # (0,0) -> (1,1) is the only consumer chain for node (1,1)'s inputs:
        # kill every out-link of (1,1) and its in-links must die, recursively
        # freeing anything that only fed (1,1); the cascade counts toward the
        # quota, so the quota covers the two out-links and the two in-links
        fabric = build_fabric(3, 2, 1, 2, 2)
        out_of_11 = [l.index for l in fabric.links if l.src == (1, 1)]
        assert out_of_11 == [5, 7]
        set_link_weights(fabric, [1.0 if l.index in out_of_11 else 2.0 for l in fabric.links])
        report = apply_event(fabric, killing(fabric, len(out_of_11) + 2), Criterion.MAGNITUDE)
        assert report.killed_links == out_of_11
        assert report.cascade_links == [2, 3]  # the in-links of (1,1)
        assert report.link_shortfall == 0
        assert all(not fabric.links[i].alive for i in report.cascade_links)
        assert all(l.dst != (1, 1) for l in fabric.alive_links())
        # connectivity survives through scale 0
        edges = [(l.src, l.dst) for l in fabric.alive_links()]
        assert path_exists(edges, (0, 0), (2, 1))

    def test_no_orphan_no_cascade(self):
        fabric = tiny_fabric()
        # kill (0,0)->(1,0): source still feeds (0,1) and (1,1); (1,0) still
        # receives from (0,1)
        victim = next(l for l in fabric.links if l.src == (0, 0) and l.dst == (1, 0))
        set_link_weights(fabric, [1.0 if l is victim else 2.0 for l in fabric.links])
        report = apply_event(fabric, killing(fabric, 1), Criterion.MAGNITUDE)
        assert report.killed_links == [victim.index]
        assert report.cascade_links == []

    @pytest.mark.parametrize("seed", range(40))
    def test_random_kills_match_rescan_and_path_oracles(self, seed):
        rng = np.random.default_rng(seed)
        fabric = build_fabric(4, 3, 1, 4, 2)
        for link in fabric.links:
            if rng.random() < 0.3:
                link.alive = False
        edges = [(l.src, l.dst) for l in fabric.links]
        pre_alive = {l.index for l in fabric.links if l.alive}

        post_alive = _links_on_paths(fabric, pre_alive)

        # oracle 1: fixpoint by repeated full rescans over the same graph
        sub_edges = [edges[i] for i in sorted(pre_alive)]
        sub_to_full = sorted(pre_alive)
        dangling = dangling_links_by_rescan(sub_edges, (0, 0), (3, 2))
        expected = pre_alive - {sub_to_full[i] for i in dangling}
        assert post_alive == expected

        # oracle 2: alive links are exactly those on some input->output path
        on_path = links_on_some_path(sub_edges, (0, 0), (3, 2))
        assert post_alive == {sub_to_full[i] for i in on_path}


def weight_stage_fabric(values, unmasked):
    """Tiny fabric whose link 0 keeps only the flat `unmasked` positions, set
    to `values`; every other conv weight is 10, so link 0 ranks first."""
    fabric = tiny_fabric()
    set_link_weights(fabric, [10.0] * len(fabric.links))
    weight = fabric.links[0].conv_weight
    mask = np.zeros(weight.data.size)
    mask[list(unmasked)] = 1.0
    weight.set_mask(mask.reshape(weight.data.shape))
    weight.data.reshape(-1)[list(unmasked)] = values
    return fabric


class TestWeightCondition:
    """The weight stage keeps at least one unmasked weight per conv matrix."""

    def test_two_unmasked_either_allowed(self):
        for values in ((1.0, 2.0), (2.0, 1.0)):
            fabric = weight_stage_fabric(values, unmasked=(0, 1))
            report = apply_event(fabric, masking(fabric, 1), Criterion.MAGNITUDE)
            assert report.masked_weights == 1 and report.skipped_weights == 0
            mask = fabric.links[0].conv_weight.mask.reshape(-1)
            assert mask[int(np.argmax(values))] == 1.0
            assert mask.sum() == 1.0

    def test_last_weight_refused(self):
        fabric = weight_stage_fabric((0.5,), unmasked=(4,))
        report = apply_event(fabric, masking(fabric, 1), Criterion.MAGNITUDE)
        assert report.skipped_weights == 1
        assert report.masked_weights == 1 and report.weight_shortfall == 0
        assert fabric.links[0].unmasked_weight_count() == 1
        assert fabric.links[0].conv_weight.data.reshape(-1)[4] == 0.5

    def test_masked_position_rejected(self):
        # masked weights are exactly 0, the lowest magnitude, yet never re-picked
        fabric = weight_stage_fabric((3.0, 1.0, 5.0, 2.0, 4.0, 6.0),
                                     unmasked=(0, 1, 2, 3, 4, 5))
        report = apply_event(fabric, masking(fabric, 2), Criterion.MAGNITUDE)
        assert report.masked_weights == 2
        mask = fabric.links[0].conv_weight.mask.reshape(-1)
        np.testing.assert_array_equal(mask, [1, 0, 1, 0, 1, 1, 0, 0, 0])
        assert all(l.conv_weight.mask is None for l in fabric.links[1:])


class TestSelectPrunable:
    """The link stage's greedy walk, least score first; on the 2x2 grid the
    links are 0: (0,0)->(1,0), 1: (0,1)->(1,0), 2: (0,0)->(1,1),
    3: (0,1)->(1,1), 4: (0,0)->(0,1) and 5: (1,0)->(1,1)."""

    def test_zero_quota(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        report = apply_event(fabric, masking(fabric, 3), Criterion.MAGNITUDE)
        assert report.killed_links == [] and report.skipped_links == []
        assert report.link_shortfall == 0 and report.masked_weights == 3
        assert all(l.alive for l in fabric.links)

    def test_unconditional_takes_lowest_scored(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [4.0, 1.0, 2.0, 5.0, 6.0, 3.0])
        report = apply_event(fabric, killing(fabric, 2), Criterion.MAGNITUDE)
        assert report.killed_links == [1, 2]
        assert report.cascade_links == [] and report.skipped_links == []
        assert [l.index for l in fabric.alive_links()] == [0, 3, 4, 5]

    def test_condition_skips_are_recorded(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [2.0, 9.0, 1.0, 9.0, 9.0, 3.0])
        for index in (1, 3, 4):
            fabric.links[index].alive = False
        # after link 2 goes, 0 -> 5 is the only path left
        report = apply_event(fabric, killing(fabric, 2), Criterion.MAGNITUDE)
        assert report.killed_links == [2]
        assert report.skipped_links == [(0, "connectivity"), (5, "connectivity")]
        assert report.link_shortfall == 1

    def test_ties_break_by_index(self):
        fabric = tiny_fabric()
        set_link_weights(fabric, [1.0] * 6)
        # killing 0 and 1 orphans link 5, whose cascade takes the third unit
        report = apply_event(fabric, killing(fabric, 3), Criterion.MAGNITUDE)
        assert report.killed_links == [0, 1]
        assert report.cascade_links == [5]

    def test_a_later_ceiling_makes_up_a_link_shortfall(self):
        # with links 1 and 2 dead the paths are 0 -> 5 and 4 -> 3: every kill
        # cascades its partner, so a ceiling one link below the four alive is
        # a shortfall, and the next event's ceiling of 2 still gets there
        fabric = tiny_fabric()
        set_link_weights(fabric, [1.0, 9.0, 9.0, 2.0, 3.0, 4.0])
        for index in (1, 2):
            fabric.links[index].alive = False
        live = fabric.live_param_count()
        first = apply_event(fabric, PruneEvent(1, 3, live), Criterion.MAGNITUDE)
        assert (first.link_quota, first.link_shortfall, first.killed_links) == (1, 1, [])
        assert first.skipped_links == [(i, "cascade_overshoot") for i in (0, 3, 4, 5)]
        second = apply_event(fabric, PruneEvent(2, 2, live), Criterion.MAGNITUDE)
        assert (second.link_quota, second.link_shortfall) == (2, 0)
        assert (second.killed_links, second.cascade_links) == ([0], [5])
        assert second.alive_links == 2
        assert [l.index for l in fabric.alive_links()] == [3, 4]

    @pytest.mark.parametrize("n", range(7))
    def test_connectivity_never_broken_exhaustive(self, n):
        # every ranking of the smallest grid's six links, set through the
        # weights' scale, keeps an input->output path and the link quota
        for ranking in itertools.permutations(range(1, 7)):
            fabric = tiny_fabric(seed=9)
            set_link_weights(fabric, ranking)
            report = apply_event(fabric, killing(fabric, n), Criterion.MAGNITUDE)
            assert report.links_removed + report.link_shortfall == n
            kept = [(l.src, l.dst) for l in fabric.alive_links()]
            assert path_exists(kept, (0, 0), (1, 1))


def assert_link_ceilings_fall_evenly(plan):
    """The link ceilings fall from the total links to the kept links in
    drops that differ by at most 1, larger drops first."""
    ceilings = [plan.budget.total_links] + [e.alive_links_ceiling for e in plan.events]
    drops = [a - b for a, b in zip(ceilings, ceilings[1:])]
    assert ceilings[-1] == plan.budget.links_kept
    assert min(drops) >= 0 and max(drops) - min(drops) <= 1
    assert sorted(drops, reverse=True) == drops


class TestBuildPlan:
    def test_iterative_has_eight_events(self):
        plan = build_plan(Strategy.ITERATIVE, 0.05, tiny_fabric(3, 3))
        assert [e.epoch for e in plan.events] == [5, 15, 25, 35, 45, 55, 65, 75]

    def test_longest_path_floor_on_big_grid(self):
        fabric = build_fabric(8, 6, 1, 32, 10)
        plan = build_plan(Strategy.EARLY, 0.05, fabric)
        assert plan.budget.total_links == 122
        assert plan.budget.min_links_kept == 12
        assert plan.budget.links_kept == 12  # max(ceil(6.1), 12)
        assert plan.events[0].alive_links_ceiling == 12

    def test_early_single_event_full_quota(self):
        fabric = build_fabric(8, 6, 1, 32, 10)
        plan = build_plan(Strategy.EARLY, 0.05, fabric)
        assert len(plan.events) == 1
        assert plan.events[0].epoch == 5
        assert plan.events[0].alive_links_ceiling == plan.budget.links_kept
        assert plan.events[0].live_params_ceiling == plan.budget.reported_params

    def test_late_single_event_at_75(self):
        plan = build_plan(Strategy.LATE, 0.10, tiny_fabric(3, 3))
        assert [e.epoch for e in plan.events] == [75]

    def test_iterative_link_ceilings_fall_evenly(self):
        fabric = build_fabric(8, 6, 2, 32, 10)
        plan = build_plan(Strategy.ITERATIVE, 0.05, fabric)
        assert_link_ceilings_fall_evenly(plan)
        ceilings = [e.live_params_ceiling for e in plan.events]
        assert sorted(ceilings, reverse=True) == ceilings
        assert ceilings[-1] == plan.budget.reported_params

    def test_paper_dims_early_plan_is_one_event_at_the_reported_count(self):
        # 12 kept links keep 223,737 of their 442,368 conv weights (51 %)
        plan = build_plan(Strategy.EARLY, 0.05, build_fabric(8, 6, 64, 32, 10))
        assert plan.events == [PruneEvent(5, 12, 228_611)]
        assert plan.budget.reported_params == 228_611

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_sparsity_range_enforced(self, bad):
        with pytest.raises(ValueError):
            build_plan(Strategy.EARLY, bad, tiny_fabric())


class TestRescalePlan:
    def test_iterative_200_to_40(self):
        fabric = build_fabric(8, 6, 1, 32, 10)
        plan = build_plan(Strategy.ITERATIVE, 0.05, fabric)
        scaled = build_plan(Strategy.ITERATIVE, 0.05, fabric, epochs=40)
        assert [e.epoch for e in scaled.events] == [1, 3, 5, 7, 9, 11, 13, 15]
        assert_link_ceilings_fall_evenly(scaled)
        assert [astuple(e)[1:] for e in scaled.events] == [astuple(e)[1:] for e in plan.events]

    def test_identity_factor(self):
        fabric = build_fabric(8, 6, 1, 32, 10)
        plan = build_plan(Strategy.ITERATIVE, 0.05, fabric)
        scaled = build_plan(Strategy.ITERATIVE, 0.05, fabric, epochs=200)
        assert [e.epoch for e in scaled.events] == [e.epoch for e in plan.events]

    def test_collisions_keep_the_later_event_with_warning(self):
        fabric = build_fabric(8, 6, 1, 32, 10)
        plan = build_plan(Strategy.ITERATIVE, 0.05, fabric)
        with pytest.warns(UserWarning):
            scaled = build_plan(Strategy.ITERATIVE, 0.05, fabric, epochs=8)
        # recipe epochs 5..75 land on 1, 1, 1, 1, 2, 2, 3, 3: events 4, 6 and 8 stay
        assert scaled.events == [PruneEvent(e, *astuple(plan.events[k])[1:])
                                 for e, k in [(1, 3), (2, 5), (3, 7)]]
        assert scaled.events[-1].alive_links_ceiling == plan.budget.links_kept
        assert scaled.events[-1].live_params_ceiling == plan.budget.reported_params

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(strategy=st.sampled_from(list(Strategy)),
           sparsity=st.floats(0.01, 0.99),
           epochs=st.integers(1, 200),
           dims=st.sampled_from([(2, 2, 1), (3, 2, 2), (4, 3, 1), (2, 4, 3)]))
    def test_matches_the_recipe_then_rescale_reference(self, strategy, sparsity, epochs, dims):
        # the schedule as the recipe plan rescaled and merged in a second
        # step: same events, same budget, and the merge warning exactly when
        # the reference warns
        layers, scales, channels = dims
        fabric = tiny_fabric(layers, scales, channels)
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            budget, events = plan_reference(strategy.value, sparsity, len(fabric.alive_links()),
                                            longest_linear_path(fabric), channels,
                                            fabric.num_classes, epochs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = build_plan(strategy, sparsity, fabric, epochs)
        assert [astuple(e) for e in plan.events] == events
        assert asdict(plan.budget) == budget
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected_warnings]


def greedy_oracle(edges, scores, n, start, goal):
    """Brute-force greedy removal: cheapest first, connectivity checked by
    path enumeration, obsolete links swept by full rescans, cascade cost
    counted against the quota (skip on overshoot)."""
    alive = set(range(len(edges)))
    order = sorted(range(len(edges)), key=lambda i: (scores[i], i))
    killed, cascaded = [], []
    remaining = n
    for i in order:
        if remaining <= 0:
            break
        if i not in alive:
            continue
        candidate_alive = alive - {i}
        sub = sorted(candidate_alive)
        sub_edges = [edges[j] for j in sub]
        if not path_exists(sub_edges, start, goal):
            continue
        closure = {sub[k] for k in dangling_links_by_rescan(sub_edges, start, goal)}
        if 1 + len(closure) > remaining:
            continue
        alive = candidate_alive - closure
        killed.append(i)
        cascaded.extend(sorted(closure))
        remaining -= 1 + len(closure)
    return killed, cascaded, alive


class TestApplyEvent:
    def test_zero_quota_changes_nothing(self):
        fabric = tiny_fabric(seed=10)
        before = [(l.alive, l.conv_weight.data.copy()) for l in fabric.links]
        report = apply_event(fabric, killing(fabric, 0), Criterion.MAGNITUDE)
        assert report.killed_links == [] and report.masked_weights == 0
        for link, (alive, w) in zip(fabric.links, before):
            assert link.alive == alive
            np.testing.assert_array_equal(link.conv_weight.data, w)

    @pytest.mark.parametrize("seed", range(10))
    def test_reachability_after_event(self, seed):
        fabric = build_fabric(4, 3, 1, 4, 2, seed=seed)
        # seven links of 12 params go, then 20 weights are masked
        apply_event(fabric, PruneEvent(1, len(fabric.links) - 7,
                                       fabric.live_param_count() - 7 * 12 - 20),
                    Criterion.MAGNITUDE)
        edges = [(l.src, l.dst) for l in fabric.alive_links()]
        assert path_exists(edges, (0, 0), (3, 2))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_greedy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        fabric = tiny_fabric(seed=seed)
        set_link_weights(fabric, rng.permutation(len(fabric.links)) + 1.0)
        n = int(rng.integers(0, 6))

        edges = [(l.src, l.dst) for l in fabric.links]
        scores = [link_norm(np.abs(l.conv_weight.data)) for l in fabric.links]
        expected_killed, expected_cascaded, expected_alive = greedy_oracle(
            edges, scores, n, (0, 0), (1, 1))

        report = apply_event(fabric, killing(fabric, n), Criterion.MAGNITUDE)
        assert report.killed_links == expected_killed
        assert sorted(report.cascade_links) == sorted(expected_cascaded)
        assert {l.index for l in fabric.alive_links()} == expected_alive

    @pytest.mark.parametrize("seed", range(15))
    def test_sensitivity_matches_oracle_too(self, seed):
        fabric = tiny_fabric(seed=seed + 50)
        batch = _batch(fabric, np.random.default_rng(seed))
        weight_scores = sensitivity_grads(fabric, [batch])
        link_scores = [link_norm(weight_scores[l.index]) for l in fabric.links]
        edges = [(l.src, l.dst) for l in fabric.links]
        expected_killed, expected_cascaded, _ = greedy_oracle(
            edges, link_scores, 3, (0, 0), (1, 1))
        report = apply_event(fabric, killing(fabric, 3), Criterion.SENSITIVITY,
                             weight_scores=weight_scores)
        assert report.killed_links == expected_killed
        assert sorted(report.cascade_links) == sorted(expected_cascaded)

    def test_quota_exact_when_unblocked(self):
        fabric = build_fabric(5, 4, 1, 8, 3, seed=1)
        before = len(fabric.alive_links())
        ceiling = fabric.live_param_count() - 12 * 12 - 30  # twelve links of 12 params
        report = apply_event(fabric, PruneEvent(1, before - 12, ceiling), Criterion.MAGNITUDE)
        assert report.link_shortfall == 0
        assert report.links_removed == 12
        assert before - len(fabric.alive_links()) == 12
        assert report.weight_shortfall == 0
        assert report.masked_weights == report.weight_quota == 30
        assert report.live_params == fabric.live_param_count() == ceiling
        masked = sum(l.conv_weight.data.size - l.unmasked_weight_count()
                     for l in fabric.alive_links())
        assert masked == 30

    def test_shortfall_reported_when_blocked(self):
        fabric = tiny_fabric(seed=2)
        # more links than can go while staying connected (min path needs 2)
        report = apply_event(fabric, killing(fabric, 6), Criterion.MAGNITUDE)
        assert report.link_shortfall > 0
        edges = [(l.src, l.dst) for l in fabric.alive_links()]
        assert path_exists(edges, (0, 0), (1, 1))

    def test_stem_and_head_bit_identical(self):
        fabric = build_fabric(4, 3, 2, 4, 3, seed=3)
        stem_before = [p.data.tobytes() for p in fabric.stem.parameters()]
        head_before = [p.data.tobytes() for p in fabric.head_parameters()]
        apply_event(fabric, PruneEvent(1, len(fabric.links) - 10,
                                       fabric.live_param_count() // 2),
                    Criterion.MAGNITUDE)
        assert fabric.stem.alive and fabric.stem.conv_weight.mask is None
        assert [p.data.tobytes() for p in fabric.stem.parameters()] == stem_before
        assert [p.data.tobytes() for p in fabric.head_parameters()] == head_before

    def test_no_all_zero_filter_after_weight_stage(self):
        for seed in range(100):
            fabric = tiny_fabric(seed=seed)
            apply_event(fabric, PruneEvent(1, 4, 0), Criterion.MAGNITUDE)
            for link in fabric.alive_links():
                assert link.unmasked_weight_count() >= 1

    def test_weight_masking_is_monotone_across_events(self):
        fabric = build_fabric(3, 3, 2, 4, 2, seed=4)
        apply_event(fabric, masking(fabric, 50), Criterion.MAGNITUDE)
        masked_after_first = {l.index: l.conv_weight.mask.copy()
                              for l in fabric.alive_links() if l.conv_weight.mask is not None}
        apply_event(fabric, masking(fabric, 50, epoch=2), Criterion.MAGNITUDE)
        for link in fabric.alive_links():
            if link.index in masked_after_first:
                previously = masked_after_first[link.index] == 0.0
                assert np.all(link.conv_weight.mask[previously] == 0.0)

    def test_ranking_order_auditable(self):
        fabric = build_fabric(3, 3, 1, 4, 2, seed=5)
        scores = {l.index: link_norm(np.abs(l.conv_weight.data)) for l in fabric.links}
        report = apply_event(fabric, killing(fabric, 5), Criterion.MAGNITUDE)
        accounted = set(report.killed_links) | set(report.cascade_links) \
            | {i for i, _ in report.skipped_links}
        worst_kill = max(scores[i] for i in report.killed_links)
        for link in fabric.links:
            if scores[link.index] < worst_kill:
                assert link.index in accounted

    def test_scale_invariance_of_magnitude_ranking(self):
        fabric = build_fabric(3, 3, 2, 4, 2, seed=6)
        scores = np.array([link_norm(np.abs(l.conv_weight.data)) for l in fabric.links])
        for link in fabric.links:
            link.conv_weight.data *= 7.3
        scaled = np.array([link_norm(np.abs(l.conv_weight.data)) for l in fabric.links])
        np.testing.assert_array_equal(np.argsort(scores, kind="stable"),
                                      np.argsort(scaled, kind="stable"))

    def test_report_round_trips_as_json(self, tmp_path):
        # the runner writes each event's report as a line; the run's reported
        # parameter count goes to report.json only
        config = ExperimentConfig(
            layers=2, channels=2, input_resolution=4, epochs=2, batch_size=16, seed=11,
            data=DataConfig(kind="synthetic", classes=3, n_per_class=10, resolution=4,
                            seed=2),
            prune=PruneConfig(strategy="early", sparsity=0.5), out_dir=str(tmp_path))
        summary = run_experiment(config)
        (line,) = (tmp_path / "prune_events.jsonl").read_text().splitlines()
        parsed = json.loads(line)
        assert PruneReport(**parsed).to_json() == line
        assert parsed["epoch"] == 1 and parsed["killed_links"]
        assert "reported_params" not in parsed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reported_params"] == summary["reported_params"] \
            == reported_param_count(param_breakdown(2, 3, 2, 3), 0.5)


class TestReportedParamCount:
    @pytest.mark.parametrize("classes,expected", [
        (10, {0.05: 228_611, 0.03: 138_194, 0.01: 47_778}),
        (100, {0.05: 234_461, 0.03: 144_044, 0.01: 53_628}),
    ])
    def test_cifar_tables(self, classes, expected):
        full = param_breakdown(8, 6, 64, classes)
        for sparsity, value in expected.items():
            assert reported_param_count(full, sparsity) == value

    def test_pascalvoc_table(self):
        full = param_breakdown(8, 7, 64, 20)
        assert reported_param_count(full, 0.05) == 271_876
        assert reported_param_count(full, 0.03) == 164_413
        assert reported_param_count(full, 0.01) == 56_951

    def test_formula_decomposition(self):
        # floor(0.05 * 4,520,832) + 2,570
        full = param_breakdown(8, 6, 64, 10)
        assert full.links == 4_520_832
        assert full.stem + full.head == 2_570
        assert reported_param_count(full, 0.05) == 226_041 + 2_570


def assert_weight_stage_meets_the_ceiling(report, ceiling):
    """The weight quota is what the link stage left above the ceiling, and
    unless it fell short the event ends at the ceiling or below it, where
    the link stage alone left the fabric."""
    after_links = report.live_params + report.masked_weights
    assert report.weight_quota == max(0, after_links - ceiling)
    assert report.masked_weights + report.weight_shortfall == report.weight_quota
    if report.weight_shortfall == 0:
        assert report.live_params == min(ceiling, after_links)


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(30))
    def test_invariants_hold_through_random_plans(self, seed):
        rng = np.random.default_rng(seed)
        layers = int(rng.integers(2, 6))
        scales = int(rng.integers(2, 5))
        fabric = build_fabric(layers, scales, 1, 2 ** (scales - 1), 2, seed=seed)
        goal = (layers - 1, scales - 1)

        for event_index in range(int(rng.integers(1, 4))):
            alive = len(fabric.alive_links())
            quota_links = int(rng.integers(0, alive + 1))
            # at most quota_links links of 12 params and 30 weights over the ceiling
            ceiling = max(0, fabric.live_param_count()
                          - int(rng.integers(0, 12 * quota_links + 30)))
            report = apply_event(fabric, PruneEvent(event_index, alive - quota_links, ceiling),
                                 Criterion.MAGNITUDE)

            edges = [(l.src, l.dst) for l in fabric.alive_links()]
            assert path_exists(edges, (0, 0), goal)
            # no dangling alive links, by the rescan oracle
            assert dangling_links_by_rescan(edges, (0, 0), goal) == set()
            for link in fabric.alive_links():
                assert link.unmasked_weight_count() >= 1
            if report.link_shortfall == 0:
                assert report.links_removed == report.link_quota
            assert_weight_stage_meets_the_ceiling(report, ceiling)


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def grids(draw):
    """A channel-1 fabric of 2-5 layers x 2-4 scales with drawn weights."""
    layers = draw(st.integers(2, 5))
    scales = draw(st.integers(2, 4))
    return build_fabric(layers, scales, 1, 2 ** (scales - 1), 2,
                        seed=draw(st.integers(0, 2**16)))


@st.composite
def grids_with_kills(draw):
    """A grid whose alive flags are a drawn subset of its links."""
    fabric = draw(grids())
    flags = draw(st.lists(st.booleans(), min_size=len(fabric.links),
                          max_size=len(fabric.links)))
    for link, alive in zip(fabric.links, flags):
        link.alive = alive
    return fabric


class TestPathRuleProperties:
    @PROPERTY_SETTINGS
    @given(grids_with_kills())
    def test_cascade_reaches_the_fixpoint(self, fabric):
        pre_alive = sorted(l.index for l in fabric.alive_links())
        alive = [fabric.links[i] for i in sorted(_links_on_paths(fabric, set(pre_alive)))]
        fed = {l.dst for l in alive}
        feeding = {l.src for l in alive}
        for link in alive:
            assert link.src == fabric.input_node or link.src in fed
            assert link.dst == fabric.output_node or link.dst in feeding

        sub_edges = [(fabric.links[i].src, fabric.links[i].dst) for i in pre_alive]
        dangling = dangling_links_by_rescan(sub_edges, fabric.input_node, fabric.output_node)
        assert {l.index for l in alive} == set(pre_alive) - {pre_alive[i] for i in dangling}

    @PROPERTY_SETTINGS
    @given(grids(), st.data())
    def test_event_keeps_a_path_and_accounts_for_its_quota(self, fabric, data):
        quota = data.draw(st.integers(0, len(fabric.links)))
        report = apply_event(fabric, killing(fabric, quota), Criterion.MAGNITUDE)
        edges = [(l.src, l.dst) for l in fabric.alive_links()]
        assert path_exists(edges, fabric.input_node, fabric.output_node)
        assert report.links_removed + report.link_shortfall == report.link_quota

    @PROPERTY_SETTINGS
    @given(grids_with_kills())
    def test_longest_linear_path_matches_exhaustive_oracle(self, fabric):
        edges = [(l.src, l.dst) for l in fabric.alive_links()
                 if l.direction is not Direction.UP]
        expected = longest_path_exhaustive(edges, fabric.input_node, fabric.output_node)
        if expected < 0:
            with pytest.raises(FabricError, match="no scale-monotone"):
                longest_linear_path(fabric)
        else:
            assert longest_linear_path(fabric) == expected


def run_plan(plan, fabric, criterion, rng):
    """Apply each of plan's events to fabric (random sensitivity scores);
    returns their reports."""
    reports = []
    for event in plan.events:
        weight_scores = None
        if criterion is Criterion.SENSITIVITY:
            weight_scores = {l.index: rng.random(l.conv_weight.data.shape)
                             for l in fabric.alive_links()}
        report = apply_event(fabric, event, criterion, weight_scores)
        assert_weight_stage_meets_the_ceiling(report, event.live_params_ceiling)
        assert report.live_params == fabric.live_param_count()
        reports.append(report)
    return reports


class TestPlanProperties:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    @pytest.mark.filterwarnings("ignore:rescaling")
    def test_whole_schedule_keeps_the_link_floor_and_a_path(self, data):
        # README: kept links never drop below the longest linear path, so no
        # event of a full build_plan schedule may cut below its link ceiling;
        # alive links only shrink, so the last event's fabric is the check
        layers, scales = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 5))
        fabric = build_fabric(layers, scales, 1, 2 ** (scales - 1), 2,
                              seed=data.draw(st.integers(0, 2**16)))
        floor = longest_linear_path(fabric)
        plan = build_plan(data.draw(st.sampled_from(list(Strategy))),
                          data.draw(st.floats(0.01, 0.99)), fabric,
                          data.draw(st.integers(1, 200)))
        criterion = data.draw(st.sampled_from(list(Criterion)))
        run_plan(plan, fabric, criterion, np.random.default_rng(data.draw(st.integers(0, 2**16))))
        alive = fabric.alive_links()
        assert len(alive) >= plan.budget.links_kept >= floor
        edges = [(l.src, l.dst) for l in alive]
        assert path_exists(edges, fabric.input_node, fabric.output_node)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(grids(), st.sampled_from(list(Strategy)), st.floats(0.01, 0.99),
           st.integers(1, 200), st.sampled_from(list(Criterion)), st.integers(0, 2**16))
    @pytest.mark.filterwarnings("ignore:rescaling")
    def test_whole_schedule_cuts_to_each_link_ceiling(self, fabric, strategy, sparsity,
                                                      epochs, criterion, seed):
        # an event reads its link quota from the fabric and cuts to its
        # ceiling, or reports the gap as a shortfall with every link still
        # alive skipped; a later event's ceiling makes the gap up
        plan = build_plan(strategy, sparsity, fabric, epochs)
        alive = {link.index for link in fabric.links}
        reports = run_plan(plan, fabric, criterion, np.random.default_rng(seed))
        for event, report in zip(plan.events, reports):
            ceiling, before = event.alive_links_ceiling, len(alive)
            alive -= {*report.killed_links, *report.cascade_links}
            assert report.alive_links == len(alive) >= ceiling >= plan.budget.min_links_kept
            assert report.link_quota == before - ceiling
            assert report.link_shortfall == len(alive) - ceiling
            if report.link_shortfall:
                assert alive <= {index for index, _ in report.skipped_links}
        for ceilings in zip(*(astuple(e)[1:] for e in plan.events)):
            assert sorted(ceilings, reverse=True) == list(ceilings)
        assert astuple(plan.events[-1])[1:] == (plan.budget.links_kept,
                                                plan.budget.reported_params)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    @pytest.mark.filterwarnings("ignore:rescaling")
    def test_whole_schedule_ends_at_the_reported_count(self, data):
        # the last event's ceiling is the target: a run ends there unless its
        # last report shows a weight shortfall (protected weights, or a target
        # below the alive links' biases and batch norms) or a link stage that
        # alone took the fabric below it
        layers, scales = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 5))
        fabric = build_fabric(layers, scales, data.draw(st.integers(1, 2)), 2 ** (scales - 1),
                              data.draw(st.integers(2, 10)),
                              seed=data.draw(st.integers(0, 2**16)))
        plan = build_plan(data.draw(st.sampled_from(list(Strategy))),
                          data.draw(st.floats(0.01, 0.99)), fabric,
                          data.draw(st.integers(1, 200)))
        report = run_plan(plan, fabric, data.draw(st.sampled_from(list(Criterion))),
                          np.random.default_rng(data.draw(st.integers(0, 2**16))))[-1]
        target = plan.budget.reported_params
        assert plan.events[-1].live_params_ceiling == target
        assert fabric.live_param_count() == target or report.weight_shortfall > 0 \
            or report.weight_quota == 0 and report.live_params < target

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.filterwarnings("ignore:rescaling")
    def test_desk_fabric_ends_exactly_at_the_reported_count(self, strategy, criterion):
        # 4x5x8, 10 classes, s = 0.05 over 20 epochs: the target is 1,740
        for seed in range(3):
            fabric = build_fabric(4, 5, 8, 16, 10, seed=seed)
            plan = build_plan(strategy, 0.05, fabric, 20)
            report = run_plan(plan, fabric, criterion, np.random.default_rng(seed))[-1]
            assert report.weight_shortfall == 0
            assert fabric.live_param_count() == plan.budget.reported_params == 1_740


@st.composite
def weight_stage_cases(draw):
    """A small fabric with drawn dead links, existing masks and (optionally
    rounded, so tied) weights, plus a criterion, per-weight scores for it
    and a weight quota from 0 to past the unmasked capacity."""
    fabric = build_fabric(draw(st.integers(2, 4)), 3, draw(st.integers(1, 2)), 4, 2,
                          seed=draw(st.integers(0, 2**16)),
                          dtype=draw(st.sampled_from([np.float32, np.float64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    decimals = draw(st.sampled_from([None, 0, 1]))
    keep = draw(st.sampled_from([0.1, 0.5, 0.9]))
    for link in fabric.links:
        w = link.conv_weight
        link.alive = draw(st.booleans())
        if decimals is not None:
            w.data[:] = np.round(w.data, decimals)
        if draw(st.booleans()):
            w.set_mask((rng.random(w.data.shape) < keep).astype(w.data.dtype))
    criterion = draw(st.sampled_from(list(Criterion)))
    weight_scores = None
    if criterion is Criterion.SENSITIVITY:
        weight_scores = {}
        for link in fabric.alive_links():
            values = np.abs(rng.normal(size=link.conv_weight.data.shape))
            weight_scores[link.index] = values if decimals is None \
                else np.round(values, decimals)
    capacity = sum(l.unmasked_weight_count() for l in fabric.alive_links())
    return fabric, criterion, weight_scores, draw(st.integers(0, capacity + 3))


def mask_or_ones(weight):
    return np.ones(weight.data.shape) if weight.mask is None else weight.mask.copy()


class TestWeightStageProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(weight_stage_cases())
    def test_rank_and_cut_matches_the_weight_at_a_time_reference(self, case):
        fabric, criterion, weight_scores, quota = case
        alive = fabric.alive_links()
        if criterion is Criterion.SENSITIVITY:
            scores = {l.index: weight_scores[l.index] for l in alive}
        else:
            scores = {l.index: np.abs(l.conv_weight.data) for l in alive}
        expected = {l.index: mask_or_ones(l.conv_weight) for l in fabric.links}
        new_masks, masked, skipped, shortfall = weight_stage_reference(
            scores, {l.index: l.conv_weight.mask for l in alive}, quota)
        expected.update(new_masks)

        report = apply_event(fabric, masking(fabric, quota), criterion, weight_scores)
        assert (report.masked_weights, report.skipped_weights, report.weight_shortfall) \
            == (masked, skipped, shortfall)
        for link in fabric.links:
            np.testing.assert_array_equal(mask_or_ones(link.conv_weight),
                                          expected[link.index])
