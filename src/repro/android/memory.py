"""RAM and flash-storage models."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.android.app import AppSpec


@dataclass
class MemoryModel:
    """Main-memory accounting.

    ``capacity_mb`` matches the emulator's RAM allocation (paper: 4096 MB);
    ``system_reserved_mb`` models the OS/zygote share unavailable to apps.
    The charge is kept as an exact :class:`~fractions.Fraction` of the
    allocated float sizes, so no rounding error builds up across
    allocate/release cycles: releasing everything returns ``used_mb``
    to exactly 0.0.
    """

    capacity_mb: float = 4096.0
    system_reserved_mb: float = 1024.0
    _used: Fraction = field(default=Fraction(0), init=False, repr=False)

    def __post_init__(self) -> None:
        if self.system_reserved_mb >= self.capacity_mb:
            raise ValueError("reserved memory must be below capacity")

    @property
    def used_mb(self) -> float:
        """RAM currently charged to apps."""
        return float(self._used)

    @property
    def available_mb(self) -> float:
        """RAM left for new app allocations."""
        return float(self._free())

    def _free(self) -> Fraction:
        return (Fraction(self.capacity_mb) - Fraction(self.system_reserved_mb)
                - self._used)

    def can_fit(self, app: AppSpec) -> bool:
        """Whether the app's footprint fits right now."""
        return Fraction(app.ram_mb) <= self._free()

    def allocate(self, app: AppSpec) -> None:
        """Charge the app's footprint against RAM."""
        if not self.can_fit(app):
            raise MemoryError(f"no RAM for {app.name} ({app.ram_mb} MB)")
        self._used += Fraction(app.ram_mb)

    def release(self, app: AppSpec) -> None:
        """Return the app's footprint to the free pool."""
        if app.ram_mb > self.used_mb + 1e-9:
            raise ValueError(f"releasing more than allocated for {app.name}")
        self._used = max(Fraction(0), self._used - Fraction(app.ram_mb))


@dataclass
class FlashModel:
    """Flash storage: cold starts stream the app image at a fixed bandwidth.

    ``read_mb_per_s`` models eMMC/UFS sequential read; ``init_overhead_s``
    is the per-launch process creation / linking cost.
    """

    read_mb_per_s: float = 250.0
    init_overhead_s: float = 0.35
    total_loaded_bytes: int = 0
    total_load_time_s: float = 0.0
    loads: int = 0

    def load(self, app: AppSpec) -> tuple[int, float]:
        """Perform a cold-start load; returns ``(bytes, seconds)``."""
        load_bytes = app.flash_load_bytes
        load_time = app.flash_load_mb / self.read_mb_per_s + self.init_overhead_s
        self.total_loaded_bytes += load_bytes
        self.total_load_time_s += load_time
        self.loads += 1
        return load_bytes, load_time
