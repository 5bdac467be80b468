"""cutcp: cutoff Coulomb potential on a 3-D lattice (Parboil).

Each lattice point accumulates the shifted Coulomb potential of all atoms
within a cutoff radius; atoms are pre-binned into cells and each
work-group scans its neighbourhood's bins.  A near-regular compute-heavy
kernel — profiled fully-productively (paper §4.2 groups it with sgemm and
stencil).

It appears in:

* **Fig 8** — LC scheduling on CPU with ~60 candidate schedules: the 5-way
  loop nest (wi_z, wi_y, wi_x, bin, atom) has 120 permutations of which
  the 60 keeping the atom loop inside its bin loop are legal.
* **Fig 10** — mixed optimizations: base vs a scratchpad-tiled,
  4×-coarsened version (work assignment factor 4, paper §4.3); the
  optimized version wins on GPU and loses on CPU.

The **workload unit** is a 16×4×2 block of lattice points.  Atom
neighbour lists are precomputed with a KD-tree so the executor performs
the real potential summation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..compiler.transforms.schedule import reorder_loops, schedule_label
from ..compiler.transforms.tile import tile_scratchpad
from ..compiler.transforms.vectorize import auto_vectorize, vectorize
from ..compiler.variants import VariantPool
from ..config import DEFAULT_CONFIG, ReproConfig
from ..kernel.buffers import Buffer
from ..kernel.ir import (
    AccessPattern,
    GATHER_STRIDE,
    KernelIR,
    Loop,
    LoopBound,
    MemoryAccess,
)
from ..kernel.kernel import KernelSpec, KernelVariant
from ..kernel.signature import ArgSpec, KernelSignature
from .base import BenchmarkCase

#: Lattice extent (x, y, z) and unit block shape.
DEFAULT_LATTICE = (64, 64, 32)
UNIT_X, UNIT_Y, UNIT_Z = 16, 4, 2
#: Atoms in the box and cutoff radius (lattice spacing 1.0).
DEFAULT_ATOMS = 20000
CUTOFF = 4.0
#: Neighbourhood bins scanned per lattice point and mean atoms per bin,
#: as the (uniform-ized) static loop bounds — cutcp's density is uniform
#: enough that the paper profiles it fully-productively.
BINS_PER_POINT = 27
ATOMS_PER_BIN = 6


def cutcp_signature() -> KernelSignature:
    """The kernel contract every cutcp variant implements."""
    return KernelSignature(
        "cutcp",
        (
            ArgSpec("geometry", is_buffer=False),
            ArgSpec("atoms"),
            ArgSpec("potential", is_output=True),
        ),
    )


class _Geometry:
    """Precomputed neighbour lists: which atoms affect which point.

    Stored CSR-style (``point_ptr``/``atom_index``/``contribution``), so
    the executor is a segmented float32 sum — the real physics, computed
    once per input and replayed per launch.
    """

    def __init__(
        self,
        lattice: Tuple[int, int, int],
        num_atoms: int,
        config: ReproConfig,
    ) -> None:
        nx, ny, nz = lattice
        rng = config.rng("cutcp", lattice, num_atoms)
        box = np.array([nx, ny, nz], dtype=np.float64)
        positions = rng.uniform(0.0, 1.0, size=(num_atoms, 3)) * box
        charges = rng.uniform(-1.0, 1.0, size=num_atoms).astype(np.float32)

        # Lattice points in unit-block order (z-block, y-block, x-block).
        xs, ys, zs = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        points = np.stack(
            [xs.ravel(order="F"), ys.ravel(order="F"), zs.ravel(order="F")],
            axis=1,
        ).astype(np.float64)
        order = self._unit_order(lattice)
        points = points[order]

        tree = cKDTree(positions)
        neighbour_lists = tree.query_ball_point(points, CUTOFF)
        counts = np.fromiter(
            (len(lst) for lst in neighbour_lists),
            dtype=np.int64,
            count=len(neighbour_lists),
        )
        self.point_ptr = np.zeros(len(points) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.point_ptr[1:])
        flat = np.concatenate(
            [np.asarray(lst, dtype=np.int64) for lst in neighbour_lists]
        ) if len(points) else np.zeros(0, dtype=np.int64)
        deltas = positions[flat] - np.repeat(points, counts, axis=0)
        distances = np.sqrt(np.sum(deltas * deltas, axis=1))
        distances = np.maximum(distances, 0.25)
        # Shifted Coulomb kernel: q * (1/r - 1/rc), zero at the cutoff.
        self.contribution = (
            charges[flat] * (1.0 / distances - 1.0 / CUTOFF)
        ).astype(np.float32)
        self.lattice = lattice
        self.num_points = len(points)

    @staticmethod
    def _unit_order(lattice: Tuple[int, int, int]) -> np.ndarray:
        """Permutation putting lattice points into unit-block order."""
        nx, ny, nz = lattice
        index = np.arange(nx * ny * nz)
        # index is x-major (x fastest) per the meshgrid ravel above:
        # decompose into coordinates.
        x = index % nx
        y = (index // nx) % ny
        z = index // (nx * ny)
        bx, by, bz = x // UNIT_X, y // UNIT_Y, z // UNIT_Z
        ox, oy, oz = x % UNIT_X, y % UNIT_Y, z % UNIT_Z
        blocks_x = nx // UNIT_X
        blocks_y = ny // UNIT_Y
        block = bx + blocks_x * (by + blocks_y * bz)
        offset = ox + UNIT_X * (oy + UNIT_Y * oz)
        rank = block * (UNIT_X * UNIT_Y * UNIT_Z) + offset
        return np.argsort(rank, kind="stable")

    def reference_potential(self) -> np.ndarray:
        """Full potential in unit-block point order."""
        out = np.zeros(self.num_points, dtype=np.float32)
        counts = np.diff(self.point_ptr)
        point_ids = np.repeat(np.arange(self.num_points), counts)
        np.add.at(out, point_ids, self.contribution)
        return out


def _executor(args: Mapping[str, object], unit_start: int, unit_end: int) -> None:
    """Accumulate potentials for the lattice points of the unit range."""
    geometry: _Geometry = args["geometry"]  # type: ignore[assignment]
    out = args["potential"].data  # type: ignore[union-attr]
    points_per_unit = UNIT_X * UNIT_Y * UNIT_Z
    p0 = unit_start * points_per_unit
    p1 = min(unit_end * points_per_unit, geometry.num_points)
    if p0 >= p1:
        return
    lo = int(geometry.point_ptr[p0])
    hi = int(geometry.point_ptr[p1])
    if hi == lo:
        out[p0:p1] = 0.0
        return
    offsets = (geometry.point_ptr[p0:p1] - lo).astype(np.int64)
    lengths = np.diff(np.append(offsets, hi - lo))
    sums = np.add.reduceat(
        geometry.contribution[lo:hi], np.minimum(offsets, hi - lo - 1)
    )
    out[p0:p1] = np.where(lengths > 0, sums, 0.0).astype(np.float32)


def base_variant(device_kind: str) -> KernelVariant:
    """Parboil's base cutcp: one work-item per lattice point."""
    points = UNIT_X * UNIT_Y * UNIT_Z
    # Neighbouring points share bins: the per-unit atom footprint is the
    # block's neighbourhood, not points × bins.
    atoms_bytes = float(BINS_PER_POINT * ATOMS_PER_BIN * 16)

    loops = (
        Loop("wi_z", LoopBound(static_trips=UNIT_Z), is_work_item_loop=True),
        Loop("wi_y", LoopBound(static_trips=UNIT_Y), is_work_item_loop=True),
        Loop("wi_x", LoopBound(static_trips=UNIT_X), is_work_item_loop=True),
        Loop("bin", LoopBound(static_trips=BINS_PER_POINT)),
        Loop("atom", LoopBound(static_trips=ATOMS_PER_BIN)),
    )
    accesses = (
        # Atom records are 16 bytes (x, y, z, q); bins are scattered in
        # the atom array, atoms within a bin are contiguous.  All points
        # of a work-group scan (nearly) the same neighbourhood, so the
        # access executes once per (bin, atom) at warp level; the replay
        # waste of divergent lanes is folded into the per-trip volume.
        MemoryAccess(
            "atoms",
            False,
            AccessPattern.STRIDED if device_kind == "cpu" else AccessPattern.GATHER,
            16.0 * 8.0,
            loop="atom",
            scope=("bin", "atom"),
            stride_bytes=16,
            strides_by_loop=(
                ("wi_z", 0),
                ("wi_y", 0),
                ("wi_x", 0),
                ("bin", GATHER_STRIDE),
                ("atom", 16),
            ),
            footprint_bytes=atoms_bytes,
        ),
        MemoryAccess(
            "potential",
            True,
            AccessPattern.COALESCED
            if device_kind == "gpu"
            else AccessPattern.UNIT_STRIDE,
            4.0,
            loop="wi_x",
            scope=("wi_z", "wi_y", "wi_x"),
            strides_by_loop=(
                ("wi_z", 4 * 64 * 64),
                ("wi_y", 4 * 64),
                ("wi_x", 4),
                ("bin", 0),
                ("atom", 0),
            ),
        ),
    )
    ir = KernelIR(
        loops=loops,
        accesses=accesses,
        # Distance, rsqrt and cutoff test per atom.
        flops_per_trip=10.0,
        divergence=0.15,
        work_group_threads=points,
        notes=("base cutcp (one work-item per lattice point)",),
    )
    return KernelVariant(
        name="base",
        ir=ir,
        executor=_executor,
        wa_factor=1,
        work_group_size=points,
        description="binned cutoff potential accumulation",
    )


def tiled_variant(device_kind: str) -> KernelVariant:
    """Parboil's optimized cutcp: scratchpad-staged bins, 4× coarsened.

    Stages each bin's atoms in scratchpad once per work-group (sharing
    them among all points of 4 units), with work assignment factor 4
    (paper §4.3).  On the GPU the staging removes the divergent replay
    waste of the gathered reads; on the CPU the cache hierarchy already
    serves the shared bins, leaving only the staging copies.
    """
    base = base_variant(device_kind)
    staged = 4 * BINS_PER_POINT * ATOMS_PER_BIN * 16
    scale = (1.0 / 8.0) if device_kind == "gpu" else 1.0
    return tile_scratchpad(
        base,
        scratchpad_bytes=staged,
        traffic_scale={"atoms": scale},
        wa_factor_scale=4,
        label="tiled,coarsen4x",
    )


def legal_orders() -> List[Tuple[str, ...]]:
    """The 60 legal loop orders (atom stays inside its bin loop)."""
    import itertools

    names = ("wi_z", "wi_y", "wi_x", "bin", "atom")
    orders = []
    for order in itertools.permutations(names):
        if order.index("bin") < order.index("atom"):
            orders.append(order)
    return orders


def schedule_family(config: ReproConfig = DEFAULT_CONFIG):
    """(order, variant) pairs for the 60 legal schedules."""
    base = base_variant("cpu")
    family = []
    for order in legal_orders():
        tag = schedule_label(base.ir, order)
        label = ">".join(order) + (f"({tag})" if tag else "")
        family.append(
            (order, auto_vectorize(reorder_loops(base, order, label=label)))
        )
    return family


_GEOMETRY_CACHE: Dict[Tuple[Tuple[int, int, int], int], _Geometry] = {}


def get_geometry(
    lattice=DEFAULT_LATTICE,
    num_atoms: int = DEFAULT_ATOMS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> _Geometry:
    """Binned atom geometry, cached per (lattice, atoms)."""
    key = (tuple(lattice), num_atoms)
    if key not in _GEOMETRY_CACHE:
        _GEOMETRY_CACHE[key] = _Geometry(lattice, num_atoms, config)
    return _GEOMETRY_CACHE[key]


def make_args_factory(
    geometry: _Geometry,
) -> Callable[[], Dict[str, object]]:
    """Argument factory binding the geometry and a fresh output."""

    def make_args() -> Dict[str, object]:
        return {
            "geometry": geometry,
            "atoms": Buffer(
                "atoms",
                geometry.contribution,  # sized like the neighbour stream
                writable=False,
            ),
            "potential": Buffer(
                "potential",
                np.zeros(geometry.num_points, dtype=np.float32),
            ),
        }

    return make_args


def make_checker(geometry: _Geometry):
    """Output validator against the reference accumulation."""
    expected = geometry.reference_potential()

    def check(args: Mapping[str, object]) -> bool:
        out = args["potential"].data  # type: ignore[union-attr]
        return bool(np.allclose(out, expected, rtol=1e-4, atol=1e-4))

    return check


def workload_units(geometry: _Geometry) -> int:
    """Lattice blocks of one launch."""
    return geometry.num_points // (UNIT_X * UNIT_Y * UNIT_Z)


def schedule_case(
    lattice=DEFAULT_LATTICE,
    num_atoms: int = DEFAULT_ATOMS,
    config: ReproConfig = DEFAULT_CONFIG,
    iterations: int = 1,
) -> BenchmarkCase:
    """Fig 8: the 60 legal schedules on the CPU.

    ``iterations`` > 1 models the molecular-dynamics outer loop that
    recomputes the potential map each step; DySel profiles the first.
    """
    geometry = get_geometry(lattice, num_atoms, config)
    variants = tuple(variant for _, variant in schedule_family(config))
    pool = VariantPool(
        spec=KernelSpec(signature=cutcp_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name="cutcp/cpu/schedules",
        pool=pool,
        make_args=make_args_factory(geometry),
        workload_units=workload_units(geometry),
        iterations=iterations,
        check=make_checker(geometry),
        notes="Case Study I: LC scheduling, CPU (60 schedules)",
    )


def mixed_case(
    device_kind: str,
    lattice=DEFAULT_LATTICE,
    num_atoms: int = DEFAULT_ATOMS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> BenchmarkCase:
    """Fig 10: Parboil's two versions (base, tiled+coarsened 4×)."""
    geometry = get_geometry(lattice, num_atoms, config)
    if device_kind == "cpu":
        # As with sgemm, the base version's flexible structure lets the
        # CPU compiler pick a lattice-innermost schedule and vectorize
        # fully; the tiled version's barriers pin its structure to a
        # narrower profitable width (paper §4.3).
        order = ("wi_z", "wi_y", "bin", "atom", "wi_x")
        base = auto_vectorize(
            reorder_loops(base_variant("cpu"), order, label="lc")
        )
        tiled = vectorize(
            tile_scratchpad(
                reorder_loops(base_variant("cpu"), order, label="lc"),
                scratchpad_bytes=4 * BINS_PER_POINT * ATOMS_PER_BIN * 16,
                traffic_scale={"atoms": 1.0},
                wa_factor_scale=4,
                label="tiled,coarsen4x",
            ),
            4,
            label="4-way",
        )
        variants = (base, tiled)
    else:
        variants = (base_variant(device_kind), tiled_variant(device_kind))
    pool = VariantPool(
        spec=KernelSpec(signature=cutcp_signature()),
        variants=variants,
    )
    return BenchmarkCase(
        name=f"cutcp/{device_kind}/mixed",
        pool=pool,
        make_args=make_args_factory(geometry),
        workload_units=workload_units(geometry),
        check=make_checker(geometry),
        notes="Case Study III: mixed compile-time optimizations",
    )
