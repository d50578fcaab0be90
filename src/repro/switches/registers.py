"""Register arrays: the stateful memory of a switch pipeline.

Data-plane programs (and the paper's primitives) keep per-connection state
— next PSN, ring-buffer pointers, outstanding-op counts, locally
accumulated counter values — in register arrays exactly as a P4 program
would.  Capacity is bounded and width-masked, matching hardware stateful
ALUs.
"""

from __future__ import annotations

from typing import Callable, List


class RegisterArray:
    """A fixed-size array of unsigned registers of ``width_bits`` each."""

    def __init__(self, name: str, size: int, width_bits: int = 64) -> None:
        if size <= 0:
            raise ValueError(f"register array size must be positive: {size}")
        if width_bits <= 0 or width_bits > 64:
            raise ValueError(f"register width must be 1..64 bits: {width_bits}")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._values: List[int] = [0] * size
        self.reads = 0
        self.writes = 0

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(
            f"register {self.name!r} index {index} out of range "
            f"(size {self.size})"
        )

    # One call per access: the bounds test is inline in each accessor.

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.writes += 1
        self._values[index] = value & self._mask

    def add(self, index: int, delta: int) -> int:
        """Read-modify-write add (one stateful-ALU op); returns new value."""
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        self.writes += 1
        new = (self._values[index] + delta) & self._mask
        self._values[index] = new
        return new

    def update(self, index: int, fn: Callable[[int], int]) -> int:
        """Apply ``fn`` read-modify-write; returns the new value."""
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        self.writes += 1
        new = fn(self._values[index]) & self._mask
        self._values[index] = new
        return new

    def fill(self, value: int) -> None:
        self._values = [value & self._mask] * self.size

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<RegisterArray {self.name} {self.size}x{self.width_bits}b>"
