"""Finite-difference verification of whole-model gradients.

The analytic gradients come from one evaluation-mode backward pass over a
fixed example batch, through the same batched loss that training uses
(`batch_loss`); the numeric side perturbs a seeded subsample of each
parameter's coordinates by +/-epsilon and re-runs the forward. No pass
carries dropout generators, so dropout is the identity and the loss is a
deterministic function of the parameters.

Frozen parameters and pinned coordinates (see Parameter.pinned) are
excluded; everything else is fair game, dead ReLU paths included (there the
perturbed losses are bit-identical, so numeric and analytic agree at 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng
from ..errors import QuadcodeError
from .layers import Parameter, batch_loss


@dataclass(frozen=True)
class ParamCheck:
    name: str
    coords_checked: int
    max_rel_error: float


@dataclass(frozen=True)
class GradCheckReport:
    checks: tuple[ParamCheck, ...]
    epsilon: float

    @property
    def max_rel_error(self) -> float:
        return max((c.max_rel_error for c in self.checks), default=0.0)

    def lines(self) -> list[str]:
        out = [f"{c.name:<24} coords {c.coords_checked:>3}  max rel err {c.max_rel_error:.3e}" for c in self.checks]
        out.append(f"{'overall':<24} {'':>10}  max rel err {self.max_rel_error:.3e}")
        return out


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / (abs(a) + abs(n) + 1e-12)


def _candidate_coords(p: Parameter) -> np.ndarray:
    free = np.ones(p.size, dtype=bool) if p.pinned is None else ~p.pinned.reshape(-1)
    return np.flatnonzero(free & (not p.frozen))  # a frozen parameter's backward writes no gradient


def finite_difference_check(
    model,
    examples,
    epsilon: float = 1e-5,
    max_coords_per_param: int = 6,
    seed: int = 0,
) -> GradCheckReport:
    """Central-difference check of every parameter against the backward pass.

    Reports each parameter's worst relative error |a-n| / (|a|+|n|+1e-12)
    over a seeded coordinate subsample.
    """
    if not examples:
        raise QuadcodeError("gradient check needs at least one example")
    batch_loss(model, examples, accumulate=True)  # the loss-only passes below write no gradient

    checks = []
    for index, p in enumerate(model.parameters()):
        candidates = _candidate_coords(p)
        if candidates.size == 0:
            checks.append(ParamCheck(p.name, 0, 0.0))
            continue
        gen = rng.stream(seed, rng.GRADCHECK, index)
        take = min(max_coords_per_param, candidates.size)
        coords = gen.choice(candidates, size=take, replace=False)
        flat = p.value.reshape(-1)
        worst = 0.0
        for coord in coords:
            original = flat[coord]
            flat[coord] = original + epsilon
            plus = batch_loss(model, examples)
            flat[coord] = original - epsilon
            minus = batch_loss(model, examples)
            flat[coord] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            worst = max(worst, relative_error(float(p.grad.flat[coord]), numeric))
        checks.append(ParamCheck(p.name, take, worst))
    return GradCheckReport(tuple(checks), epsilon)
