"""Adam-style optimizer with decoupled weight decay, parameter groups with
enable switches, and a warmup-then-linear-decay learning-rate schedule.

A disabled group is skipped entirely: no moment update, no decay, so its
parameters stay bit-identical across steps. It is also frozen out of the
autodiff graph: the constructor sets each parameter's `requires_grad` to its
group's `enabled`, so a disabled tower records no graph and its `grad` stays
zero. A frozen parameter stays `requires_grad=False` until another optimizer
enables its group; flipping `enabled` on a live group changes only whether
`step` updates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Parameter
from .errors import DomainError


@dataclass
class ParamGroup:
    params: list[Parameter]
    enabled: bool = True
    name: str = ""


class AdamW:
    def __init__(
        self,
        groups: list[ParamGroup],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        if lr <= 0:
            raise DomainError(f"learning rate must be positive, got {lr}")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise DomainError(f"betas must lie in [0, 1), got {betas}")
        for group in groups:
            for p in group.params:
                p.requires_grad = group.enabled
        self.groups = groups
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group.params:
                p.zero_grad()

    def step(self, lr_multiplier: float = 1.0) -> None:
        b1, b2 = self.betas
        for group in self.groups:
            if not group.enabled:
                continue
            for p in group.params:
                key = id(p)
                m = self._m.setdefault(key, np.zeros_like(p.data))
                v = self._v.setdefault(key, np.zeros_like(p.data))
                t = self._t.get(key, 0) + 1
                self._t[key] = t
                g = p.grad
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                m_hat = m / (1 - b1**t)
                v_hat = v / (1 - b2**t)
                update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
                p.data = p.data - (self.lr * lr_multiplier) * update


def make_optimizer(dual, config, extra: Sequence[ParamGroup] = ()) -> AdamW:
    """AdamW over a dual encoder's question and context towers, each enabled
    by the config's `update_query_encoder` / `update_context_encoder`, plus
    any `extra` groups; lr and decay come from the config."""
    groups = [
        ParamGroup(
            dual.question_encoder.parameters(),
            enabled=config.update_query_encoder,
            name="query_encoder",
        ),
        ParamGroup(
            dual.context_encoder.parameters(),
            enabled=config.update_context_encoder,
            name="context_encoder",
        ),
        *extra,
    ]
    return AdamW(groups, lr=config.learning_rate, weight_decay=config.weight_decay)


def descend(optimizer: AdamW, loss, step: int, total_steps: int, warmup_ratio: float) -> float:
    """One update: the gradients of `loss` alone, then one `optimizer.step`
    at the schedule's rate for this 1-based step. Returns the loss value."""
    optimizer.zero_grad()
    loss.backward()
    optimizer.step(linear_schedule(step, total_steps, warmup_ratio))
    return loss.item()


def linear_schedule(step: int, total_steps: int, warmup_ratio: float = 0.01) -> float:
    """Learning-rate multiplier for a 1-based step.

    Ramps linearly to 1 over the warmup span, then decays linearly; the final
    step keeps a small positive multiplier so every step trains.
    """
    if not (1 <= step <= total_steps):
        raise DomainError(f"step {step} outside [1, {total_steps}]")
    if not (0 <= warmup_ratio < 1):
        raise DomainError(f"warmup_ratio must lie in [0, 1), got {warmup_ratio}")
    warmup = max(1, round(warmup_ratio * total_steps))
    if step <= warmup:
        return step / warmup
    return (total_steps - step + 1) / (total_steps - warmup + 1)
