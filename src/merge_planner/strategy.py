"""Merge plans as explicit trees over contiguous step intervals.

A plan's leaves are the single steps ``1..T``; a binary node merges two
adjacent blocks (applying the shrinkage weight of its end time); a one-shot
node merges the raw single-step operators of its whole interval in one go.
One-shot nodes are a distinct kind because their interpolation anchor is
the raw single-step operator at the end time, which nested binary merges
cannot express.

Plans are evaluated on arrays (:func:`plan_entries`): the ``(T, d)``
single-step and shrinkage matrices are built once per problem, not per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

import numpy as np

from .linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    _interval_product,
    single_step_matrix,
)
from .schedule import NoiseSchedule

__all__ = [
    "Leaf",
    "OneShot",
    "MergeNode",
    "MergePlan",
    "PlanLabel",
    "plan_vanilla",
    "plan_progressive",
    "plan_sequential_boot",
    "plan_sequential_consistency",
    "plan_label",
    "evaluate_plan",
    "plan_entries",
    "internal_nodes",
    "format_plan",
    "parse_plan",
]


@dataclass(frozen=True)
class Leaf:
    """A single teacher step."""

    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"leaf step must be >= 1, got {self.t}")

    @property
    def interval(self) -> tuple[int, int]:
        return (self.t, self.t)


@dataclass(frozen=True)
class OneShot:
    """One-shot merge of all raw single-step operators over ``(t1, t2)``, t1 < t2."""

    t1: int
    t2: int

    def __post_init__(self) -> None:
        if not 1 <= self.t1 < self.t2:
            raise ValueError(
                f"one-shot node requires 1 <= t1 < t2, got ({self.t1}, {self.t2})"
            )

    @property
    def interval(self) -> tuple[int, int]:
        return (self.t1, self.t2)


@dataclass(frozen=True)
class MergeNode:
    """Binary merge of two adjacent child blocks."""

    left: "MergePlan"
    right: "MergePlan"
    # derived once from the children; not part of equality, hash or repr
    interval: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t1, m = self.left.interval
        m2, t2 = self.right.interval
        if m2 != m + 1:
            raise ValueError(
                f"children are not adjacent: {self.left.interval} then {self.right.interval}"
            )
        object.__setattr__(self, "interval", (t1, t2))


MergePlan = Union[Leaf, OneShot, MergeNode]


class PlanLabel(Enum):
    VANILLA = "vanilla"
    PROGRESSIVE = "progressive"
    SEQUENTIAL_BOOT = "boot"
    SEQUENTIAL_CONSISTENCY = "consistency"
    CUSTOM = "custom"


def plan_vanilla(T: int) -> MergePlan:
    """Merge the entire trajectory in a single one-shot update."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return Leaf(1) if T == 1 else OneShot(1, T)


def plan_progressive(T: int) -> MergePlan:
    """Perfectly balanced pairwise-merge tree; requires T to be a power of two."""
    if T < 1 or (T & (T - 1)) != 0:
        raise ValueError(f"progressive plans require a power-of-two T, got {T}")

    def build(t1: int, t2: int) -> MergePlan:
        if t1 == t2:
            return Leaf(t1)
        mid = (t1 + t2) // 2
        return MergeNode(build(t1, mid), build(mid + 1, t2))

    return build(1, T)


def plan_sequential_boot(T: int) -> MergePlan:
    """Left-deep growth from the noisy end: leaf t merges with the block (t+1, T)."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    node: MergePlan = Leaf(T)
    for t in range(T - 1, 0, -1):
        node = MergeNode(Leaf(t), node)
    return node


def plan_sequential_consistency(T: int) -> MergePlan:
    """Left-deep growth from the clean end: block (1, t-1) merges with leaf t."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    node: MergePlan = Leaf(1)
    for t in range(2, T + 1):
        node = MergeNode(node, Leaf(t))
    return node


def plan_label(plan: MergePlan) -> PlanLabel:
    """Structurally classify a plan against the four canonical constructions."""
    T = plan.interval[1]
    if plan.interval[0] != 1:
        return PlanLabel.CUSTOM
    if plan == plan_vanilla(T):
        return PlanLabel.VANILLA
    if plan == plan_sequential_boot(T):
        return PlanLabel.SEQUENTIAL_BOOT
    if plan == plan_sequential_consistency(T):
        return PlanLabel.SEQUENTIAL_CONSISTENCY
    if (T & (T - 1)) == 0 and plan == plan_progressive(T):
        return PlanLabel.PROGRESSIVE
    return PlanLabel.CUSTOM


def evaluate_plan(
    plan: MergePlan,
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
) -> DiagOperator:
    """Evaluate a plan to its final merged operator.

    Leaves map to single-step operators, one-shot nodes to direct merges,
    binary nodes to the recursive merge of their children's results; see
    :func:`plan_entries`.
    """
    if plan.interval != (1, sched.T):
        raise ValueError(
            f"plan covers {plan.interval} but the schedule requires (1, {sched.T})"
        )
    if shrink.T != sched.T or shrink.d != data.d:
        raise ValueError("shrinkage profile does not match schedule/data")
    entries = plan_entries(plan, single_step_matrix(sched, data), shrink.gamma)
    return DiagOperator(entries=entries, interval=(1, sched.T))


def plan_entries(plan: MergePlan, single: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Merged entries of ``plan`` from the ``(T, d)`` single-step and shrinkage matrices.

    ``single`` and ``gamma`` are as from :func:`single_step_matrix` and
    ``shrinkage(...).gamma`` (row ``t-1`` holds step ``t``; ``d`` may be a
    batch of independent coordinates).  The arithmetic is that of the
    object-per-node reference in ``tests/plan_reference.py``
    (``single_step_operator``, ``direct_merge`` and ``merge``), so the result
    equals its post-order evaluation bit for bit.  A leaf returns a view of
    its row of ``single``.
    """
    if isinstance(plan, Leaf):
        return single[plan.t - 1]
    if isinstance(plan, OneShot):
        g = gamma[plan.t2 - 1]
        prod = _interval_product(single, plan.t1, plan.t2)
        return (1.0 - g) * prod + g * single[plan.t2 - 1]
    if isinstance(plan, MergeNode):
        left = plan_entries(plan.left, single, gamma)
        right = plan_entries(plan.right, single, gamma)
        g = gamma[plan.interval[1] - 1]
        return (1.0 - g) * (left * right) + g * right
    raise TypeError(f"malformed plan node: {plan!r}")


def internal_nodes(plan: MergePlan) -> Iterator[tuple[MergePlan, int]]:
    """Yield ``(node, depth)`` for every merge-performing node, root depth 0."""

    def walk(node: MergePlan, depth: int) -> Iterator[tuple[MergePlan, int]]:
        if isinstance(node, Leaf):
            return
        yield node, depth
        if isinstance(node, MergeNode):
            yield from walk(node.left, depth + 1)
            yield from walk(node.right, depth + 1)

    yield from walk(plan, 0)


def format_plan(plan: MergePlan) -> str:
    """Serialize to nested parenthesized text, e.g. ``((1:1)((2:2)(3:3)))``."""
    if isinstance(plan, Leaf):
        return f"({plan.t}:{plan.t})"
    if isinstance(plan, OneShot):
        return f"({plan.t1}:{plan.t2} oneshot)"
    if isinstance(plan, MergeNode):
        return f"({format_plan(plan.left)}{format_plan(plan.right)})"
    raise TypeError(f"malformed plan node: {plan!r}")


def parse_plan(text: str) -> MergePlan:
    """Parse the serialization produced by :func:`format_plan` (lossless round trip)."""
    plan, pos = _parse_node(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters after plan at position {pos}: {text!r}")
    return plan


def _parse_node(text: str, pos: int) -> tuple[MergePlan, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ValueError(f"expected '(' at position {pos} in {text!r}")
    pos += 1
    if pos < len(text) and text[pos] == "(":
        left, pos = _parse_node(text, pos)
        right, pos = _parse_node(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at position {pos} in {text!r}")
        return MergeNode(left, right), pos + 1
    end = text.find(")", pos)
    if end < 0:
        raise ValueError(f"unterminated node at position {pos} in {text!r}")
    body = text[pos:end]
    if body.endswith(" oneshot"):
        span, oneshot = body[: -len(" oneshot")], True
    else:
        span, oneshot = body, False
    t1_str, _, t2_str = span.partition(":")
    t1, t2 = int(t1_str), int(t2_str)
    if oneshot:
        return OneShot(t1, t2), end + 1
    if t1 != t2:
        raise ValueError(f"leaf must cover a single step, got {body!r}")
    return Leaf(t1), end + 1
