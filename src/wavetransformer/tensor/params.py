"""Named parameter storage."""
from __future__ import annotations

from typing import Iterator

from ..errors import UsageError
from .core import Tensor


class ParameterStore:
    """Map from dot-separated hierarchical names to trainable tensors.

    Iteration is always lexicographic by name, so reductions over the store
    (gradient norms, optimizer sweeps, serialization) have a fixed order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise UsageError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in sorted(self._params):
            yield name, self._params[name]

    def tensors(self) -> Iterator[Tensor]:
        for _, t in self.items():
            yield t

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def count(self) -> int:
        return sum(t.size for t in self._params.values())
