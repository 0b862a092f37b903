"""Two-stage fabric pruning: whole links first, then individual weights.

Each event builds one score map, a per-weight criterion value for every
conv weight of the alive links. Links are scored by the Euclidean norm of
their scores, removed smallest-first under the condition that input and
output stay connected, and followed by cascade removal of links made
obsolete. Weights on surviving links are then ranked once by their
scores, smallest first, and cut: each link's last unmasked weight in that
ranking is protected, so no conv matrix ends up all zero, and the first
`quota` unprotected weights are masked. Schedules place the work at epoch 5
(early), epoch 75 (late), or spread it over epochs 5, 15, ..., 75
(iterative) of the 200-epoch recipe, mapped proportionally onto a run's
epochs; the number of links kept never drops below the longest linear path.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .fabric import Fabric, clone_parameters, longest_linear_path
from .tensor import UsageError


class Criterion(enum.Enum):
    MAGNITUDE = "magnitude"  # |w|, data-free
    SENSITIVITY = "sensitivity"  # |w * dL/dw|, needs a gradient source


class Strategy(enum.Enum):
    EARLY = "early"
    LATE = "late"
    ITERATIVE = "iterative"


RECIPE_EPOCHS = 200
# each strategy's pruning epochs on the recipe
RECIPE_EVENTS = {Strategy.EARLY: (5,), Strategy.LATE: (75,),
                 Strategy.ITERATIVE: tuple(range(5, 76, 10))}  # 5, 15, ..., 75


def sensitivity_grads(fabric: Fabric, batches) -> dict[int, np.ndarray]:
    """Average |w * dL/dw| per conv weight over one pass through a source.

    The source yields (images, labels) batches. The fabric is left
    untouched, even by a pass that raises: no optimizer step runs, gradients
    are zeroed afterwards and its state, batch-norm running statistics
    included, is restored from a snapshot taken before the pass.
    """
    snapshot = clone_parameters(fabric)
    totals: dict[int, np.ndarray] = {}
    count = 0
    params = fabric.parameters()
    try:
        for images, labels in batches:
            for p in params:
                p.zero_grad()
            fabric.loss_backward(images, labels)
            for link in fabric.alive_links():
                w = link.conv_weight
                contribution = np.abs(w.data * w.grad)
                if link.index in totals:
                    totals[link.index] += contribution
                else:
                    totals[link.index] = contribution.astype(np.float64)
            count += 1
    finally:
        for p in params:
            p.zero_grad()
        fabric.load_state(snapshot)
    if count == 0:
        raise UsageError("sensitivity gradients need a non-empty source")
    return {index: total / count for index, total in totals.items()}


def _links_on_paths(fabric: Fabric, alive: set[int]) -> set[int]:
    """The links of `alive` that lie on some input->output path.

    One forward pass marks the nodes the input reaches, one backward pass
    the nodes that reach the output; a link is on a path iff its source is
    marked by the first and its destination by the second. The result is
    empty exactly when the input no longer reaches the output.
    """
    # (layer, scale) order is topological: every in-link of a node has a
    # smaller source than the node, so in source order a node's in-links
    # come before its out-links, and in reverse destination order after
    links = sorted((fabric.links[index] for index in alive), key=lambda l: l.src)
    reached = {fabric.input_node}
    for link in links:
        if link.src in reached:
            reached.add(link.dst)
    reaching = {fabric.output_node}
    for link in sorted(links, key=lambda l: l.dst, reverse=True):
        if link.dst in reaching:
            reaching.add(link.src)
    return {link.index for link in links if link.src in reached and link.dst in reaching}


def link_condition(fabric: Fabric, proposed: set[int]) -> bool:
    """True iff killing all of `proposed` leaves an input->output alive path."""
    alive = {link.index for link in fabric.alive_links()}
    return bool(_links_on_paths(fabric, alive - proposed))


@dataclass
class PruneEvent:
    epoch: int
    links_to_remove: int
    weights_to_remove: int

    def __post_init__(self):
        if self.links_to_remove < 0 or self.weights_to_remove < 0:
            raise ValueError("prune quotas must be nonnegative")


@dataclass
class SparsityBudget:
    """How a target sparsity translates into kept links and weights."""

    total_links: int
    links_kept: int
    min_links_kept: int
    surviving_conv_weights: int
    weights_kept: int

    @property
    def links_to_remove(self) -> int:
        return self.total_links - self.links_kept

    @property
    def weights_to_remove(self) -> int:
        return self.surviving_conv_weights - self.weights_kept


@dataclass
class PrunePlan:
    strategy: Strategy
    sparsity: float
    budget: SparsityBudget
    events: list[PruneEvent]


def _split_quota(total: int, parts: int) -> list[int]:
    # integer quotas differing by at most 1, larger ones first
    base, remainder = divmod(total, parts)
    return [base + 1 if i < remainder else base for i in range(parts)]


def rescale_epochs(values, old_total: int, new_total: int) -> list[int]:
    """Proportional epoch mapping, round half up, floored at epoch 1."""
    factor = new_total / old_total
    return [max(1, math.floor(v * factor + 0.5)) for v in values]


def build_plan(strategy: Strategy, sparsity: float, fabric: Fabric,
               epochs: int = RECIPE_EPOCHS) -> PrunePlan:
    """Derive the pruning schedule of an `epochs`-epoch run for a target
    sparsity on a built fabric.

    Kept links never drop below the longest linear path; the weight quota
    covers the conv weights of links that survive link pruning. Both quotas
    are split over the strategy's recipe events, whose epochs are mapped
    onto `epochs`; events that land on one epoch are merged with a warning.
    """
    if not 0.0 < sparsity < 1.0:
        raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
    frac = Fraction(str(sparsity))
    total_links = len(fabric.alive_links())
    floor_links = longest_linear_path(fabric)
    links_kept = max(math.ceil(frac * total_links), floor_links)
    links_kept = min(links_kept, total_links)

    per_link_weights = fabric.C * fabric.C * 9
    surviving_weights = links_kept * per_link_weights
    weights_kept = math.ceil(frac * surviving_weights)
    budget = SparsityBudget(
        total_links=total_links,
        links_kept=links_kept,
        min_links_kept=floor_links,
        surviving_conv_weights=surviving_weights,
        weights_kept=weights_kept,
    )

    recipe = RECIPE_EVENTS[strategy]
    quotas: dict[int, tuple[int, int]] = {}
    for epoch, links, weights in zip(rescale_epochs(recipe, RECIPE_EPOCHS, epochs),
                                     _split_quota(budget.links_to_remove, len(recipe)),
                                     _split_quota(budget.weights_to_remove, len(recipe))):
        prev_links, prev_weights = quotas.get(epoch, (0, 0))
        quotas[epoch] = (prev_links + links, prev_weights + weights)
    if len(quotas) < len(recipe):
        warnings.warn(f"rescaling {RECIPE_EPOCHS}->{epochs} merged pruning events")
    events = [PruneEvent(epoch, *quotas[epoch]) for epoch in sorted(quotas)]
    return PrunePlan(strategy=strategy, sparsity=sparsity, budget=budget, events=events)


@dataclass
class PruneReport:
    """Outcome of one pruning event, serializable as a JSON line."""

    epoch: int
    link_quota: int
    weight_quota: int
    killed_links: list[int] = field(default_factory=list)
    cascade_links: list[int] = field(default_factory=list)
    skipped_links: list[tuple[int, str]] = field(default_factory=list)
    masked_weights: int = 0
    skipped_weights: int = 0
    link_shortfall: int = 0
    weight_shortfall: int = 0
    alive_links: int = 0
    live_params: int = 0

    @property
    def links_removed(self) -> int:
        return len(self.killed_links) + len(self.cascade_links)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _apply_link_stage(fabric: Fabric, quota: int, scores: dict[int, np.ndarray],
                      report: PruneReport, count_cascade: bool) -> None:
    links = fabric.alive_links()
    # a link's score is the Euclidean norm of its weights' scores
    norms = {link.index: np.sqrt(np.sum(np.square(scores[link.index], dtype=np.float64)))
             for link in links}
    order = sorted(links, key=lambda l: (norms[l.index], l.index))
    alive = {link.index for link in links}
    remaining = quota
    for link in order:
        if remaining <= 0:
            break
        if link.index not in alive:
            continue  # already swept away by an earlier cascade
        kept = _links_on_paths(fabric, alive - {link.index})
        if not kept:
            report.skipped_links.append((link.index, "connectivity"))
            continue
        cascade = sorted(alive - kept - {link.index})
        cost = 1 + len(cascade) if count_cascade else 1
        if count_cascade and cost > remaining:
            report.skipped_links.append((link.index, "cascade_overshoot"))
            continue
        for index in [link.index, *cascade]:
            fabric.links[index].alive = False
        alive = kept
        report.killed_links.append(link.index)
        report.cascade_links.extend(cascade)
        remaining -= cost
    report.link_shortfall = remaining


def _apply_weight_stage(fabric: Fabric, quota: int, scores: dict[int, np.ndarray],
                        report: PruneReport) -> None:
    links = fabric.alive_links()
    if not links:
        report.weight_shortfall = quota
        return
    # global ascending ranking over all unmasked conv weights; candidates are
    # gathered in (link index, flat position) order so stable sort breaks ties
    # the same way every run
    score_parts, position_parts = [], []
    for link in links:
        w = link.conv_weight
        flat = scores[link.index].reshape(-1)
        pos = np.arange(flat.size) if w.mask is None else np.flatnonzero(w.mask)
        score_parts.append(np.asarray(flat[pos], dtype=np.float64))
        position_parts.append(pos)
    sizes = np.array([pos.size for pos in position_parts])
    order = np.argsort(np.concatenate(score_parts), kind="stable")
    owners = np.repeat(np.arange(len(links)), sizes)[order]
    positions = np.concatenate(position_parts)[order]

    # a link's last unmasked weight in ranking order is protected, as masking
    # it would zero the conv matrix; the cut masks the first `quota`
    # unprotected weights and skips the protected ones ranked before its end.
    # Before the sort each link's candidates are one run, so its last-ranked
    # one is the largest rank over the run (a link with none has no run).
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    protected = np.zeros(order.size, dtype=bool)
    protected[np.maximum.reduceat(rank, (np.cumsum(sizes) - sizes)[sizes > 0])] = True
    cut = np.flatnonzero(~protected)[:quota]
    end = cut[-1] if cut.size == quota else order.size
    report.masked_weights = int(cut.size)
    report.skipped_weights = int(np.count_nonzero(protected[:end]))
    report.weight_shortfall = quota - int(cut.size)
    cut_owners, cut_positions = owners[cut], positions[cut]
    for slot in np.unique(cut_owners):
        w = links[slot].conv_weight
        mask = np.ones_like(w.data) if w.mask is None else w.mask.copy()
        mask.reshape(-1)[cut_positions[cut_owners == slot]] = 0.0
        w.set_mask(mask)


def apply_event(fabric: Fabric, event: PruneEvent, criterion: Criterion,
                weight_scores: dict[int, np.ndarray] | None = None,
                count_cascade: bool = True) -> PruneReport:
    """Run one pruning event: the link stage, then the weight stage.

    Both stages read one score map, link index -> per-weight scores: |w| of
    each alive link's conv weights under magnitude, or weight_scores (as
    sensitivity_grads gives them) under sensitivity. Cascade kills count
    toward the link quota by default; a candidate whose cascade would
    overshoot the quota is skipped like a condition failure. Quota that
    cannot be met is reported as a shortfall, never forced.
    """
    if criterion is Criterion.SENSITIVITY:
        if weight_scores is None and (event.links_to_remove > 0
                                      or event.weights_to_remove > 0):
            raise UsageError("sensitivity pruning needs per-weight scores")
        scores = weight_scores
    else:
        scores = {link.index: np.abs(link.conv_weight.data) for link in fabric.alive_links()}
    report = PruneReport(epoch=event.epoch, link_quota=event.links_to_remove,
                         weight_quota=event.weights_to_remove)
    if event.links_to_remove > 0:
        _apply_link_stage(fabric, event.links_to_remove, scores, report, count_cascade)
    if event.weights_to_remove > 0:
        _apply_weight_stage(fabric, event.weights_to_remove, scores, report)
    report.alive_links = len(fabric.alive_links())
    report.live_params = fabric.live_param_count()
    return report


def reported_param_count(full_breakdown, sparsity: float) -> int:
    """The accounting figure for a pruned model: floor(s * prunable) + fixed.

    `prunable` is every link parameter of the full fabric (conv, bias, BN);
    `fixed` is the stem plus the head, which are never pruned. Exact decimal
    arithmetic so table values reproduce without float drift.
    """
    prunable = full_breakdown.links
    fixed = full_breakdown.stem + full_breakdown.head
    return math.floor(Fraction(str(sparsity)) * prunable) + fixed
