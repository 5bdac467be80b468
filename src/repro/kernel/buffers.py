"""Device buffers: typed views over numpy arrays.

A :class:`Buffer` is the unit of data a kernel reads or writes.  It wraps a
numpy array and records which simulated *memory space* it lives in — the
data-placement optimization the paper evaluates in Case Study II moves
buffers between these spaces (global, scratchpad, texture, constant), which
changes access cost on the GPU model but never changes functional results.

Buffers also support the sandbox/private-output mechanics of partial
productive profiling (paper §2.2): :meth:`Buffer.sandbox_copy` creates a
throwaway clone for non-committing profiling runs, and
:meth:`Buffer.swap_contents` installs a private output as the final one.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from ..errors import BufferError_


class MemorySpace(enum.Enum):
    """Simulated memory spaces a buffer can be placed in.

    These mirror the placement targets of PORPLE [7] and Jang et al. [15]:
    GPU global memory (DRAM through L2), scratchpad (shared memory),
    texture (read-only cache path), and constant memory.  On the CPU model
    every space is lowered to the uniform cache hierarchy — which is exactly
    why scratchpad tiling hurts on CPUs in Fig 10a (copy cost, no latency
    gain).
    """

    GLOBAL = "global"
    SCRATCHPAD = "scratchpad"
    TEXTURE = "texture"
    CONSTANT = "constant"


class Buffer:
    """A named, typed device buffer backed by a numpy array.

    Parameters
    ----------
    name:
        Human-readable name used in error messages and access descriptors.
    data:
        The backing numpy array.  The buffer takes ownership of the array;
        callers should not mutate it except through kernel execution.
    space:
        The simulated memory space the buffer is placed in.
    writable:
        Whether kernels may write this buffer.  Placement into TEXTURE or
        CONSTANT space requires ``writable=False``, matching hardware.
        ``writable=False`` is the kernel contract only: it says no kernel
        writes the buffer, not that its array never changes.  Freezing
        the array as well (``data.setflags(write=False)``) is what makes
        the input cacheable: the cost memo and workload signatures key a
        frozen array by identity, and a later write raises instead of
        leaving a stale entry (see :mod:`repro.device.cost`).
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        space: MemorySpace = MemorySpace.GLOBAL,
        writable: bool = True,
    ) -> None:
        if not isinstance(data, np.ndarray):
            raise BufferError_(
                f"buffer {name!r} requires a numpy array, got {type(data).__name__}"
            )
        if space in (MemorySpace.TEXTURE, MemorySpace.CONSTANT) and writable:
            raise BufferError_(
                f"buffer {name!r} in {space.value} space must be read-only"
            )
        self.name = name
        self.data = data
        self.space = space
        self.writable = writable

    @property
    def nbytes(self) -> int:
        """Size of the backing storage in bytes."""
        return int(self.data.nbytes)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the backing array."""
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing array."""
        return self.data.dtype

    def replaced(
        self,
        space: Optional[MemorySpace] = None,
        writable: Optional[bool] = None,
    ) -> "Buffer":
        """Return a buffer sharing this data but with placement changed.

        Data placement transforms use this: the numpy contents are shared
        (placement never changes functional behaviour), only the simulated
        space differs.
        """
        return Buffer(
            self.name,
            self.data,
            space=self.space if space is None else space,
            writable=self.writable if writable is None else writable,
        )

    def sandbox_copy(self, label: str = "sandbox") -> "Buffer":
        """Return a deep copy for sandboxed profiling (hybrid mode).

        The copy is writable and placed in the same space; writes to it are
        discarded after profiling.
        """
        if not self.writable:
            raise BufferError_(
                f"cannot sandbox read-only buffer {self.name!r}; sandboxes "
                "exist to absorb writes"
            )
        return Buffer(
            f"{self.name}.{label}",
            self.data.copy(),
            space=self.space,
            writable=True,
        )

    def swap_contents(self, other: "Buffer") -> None:
        """Install ``other``'s contents as this buffer's contents.

        Swap-based partial-productive profiling keeps one private output per
        profiled variant; the winner's private output becomes the final
        output (paper Fig 3c).  Shapes and dtypes must match.
        """
        if other.data.shape != self.data.shape:
            raise BufferError_(
                f"cannot swap {other.name!r} (shape {other.data.shape}) into "
                f"{self.name!r} (shape {self.data.shape})"
            )
        if other.data.dtype != self.data.dtype:
            raise BufferError_(
                f"cannot swap {other.name!r} (dtype {other.data.dtype}) into "
                f"{self.name!r} (dtype {self.data.dtype})"
            )
        if not self.writable:
            raise BufferError_(f"cannot swap into read-only buffer {self.name!r}")
        self.data[...] = other.data

    def __repr__(self) -> str:
        return (
            f"Buffer({self.name!r}, shape={self.data.shape}, "
            f"dtype={self.data.dtype}, space={self.space.value}, "
            f"writable={self.writable})"
        )
