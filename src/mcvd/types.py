"""Core domain types: physical parameters, channel model coefficients, time
grids, and received-signal containers shared by every other module.

Units are fixed package-wide: lengths in micrometers, time in seconds,
diffusion coefficients in micrometers^2/second. All received-signal values
are dimensionless cumulative fractions of the emitted molecule count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ValidationError",
    "MissingArtifactError",
    "NumericError",
    "ModelKind",
    "Provenance",
    "SystemParams",
    "ModelParams",
    "TimeGrid",
    "ReceivedSignal",
]


class ValidationError(ValueError):
    """Invalid user-supplied parameters or malformed inputs."""


class MissingArtifactError(FileNotFoundError):
    """A required persisted artifact (signal, record, network) is absent."""


class NumericError(ArithmeticError):
    """Non-finite values or a numerical breakdown inside an algorithm."""


class ModelKind(str, Enum):
    PRIMITIVE = "primitive"
    ENHANCED = "enhanced"


class Provenance(str, Enum):
    TDS = "TDS"
    VDS = "VDS"
    ANN_PREDICTION = "ann_prediction"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Physical description of one channel case.

    d: surface gap between the emission point and the receiver sphere (um).
    r_tx: transmitter radius (um); 0 means a point transmitter.
    r_rx: receiver radius (um).
    diff_coeff: diffusion coefficient (um^2/s).
    """

    d: float
    r_tx: float
    r_rx: float
    diff_coeff: float

    def __post_init__(self) -> None:
        for name in ("d", "r_tx", "r_rx", "diff_coeff"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.d <= 0:
            raise ValidationError(f"d must be > 0, got {self.d}")
        if self.r_rx <= 0:
            raise ValidationError(f"r_rx must be > 0, got {self.r_rx}")
        if self.diff_coeff <= 0:
            raise ValidationError(f"diff_coeff must be > 0, got {self.diff_coeff}")
        if self.r_tx < 0:
            raise ValidationError(f"r_tx must be >= 0, got {self.r_tx}")


@dataclass(frozen=True)
class ModelParams:
    """Fitted channel-model coefficients.

    The primitive model carries a single scale b1; the enhanced model adds
    exponents b2 (on the diffusion term 4D) and b3 (on time).
    """

    kind: ModelKind
    b1: float
    b2: float | None = None
    b3: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "b1", _require_finite("b1", self.b1))
        if self.b1 <= 0:
            raise ValidationError(f"b1 must be > 0, got {self.b1}")
        if self.kind is ModelKind.PRIMITIVE:
            if self.b2 is not None or self.b3 is not None:
                raise ValidationError("primitive model carries exactly one coefficient")
        else:
            if self.b2 is None or self.b3 is None:
                raise ValidationError("enhanced model requires b1, b2 and b3")
            object.__setattr__(self, "b2", _require_finite("b2", self.b2))
            object.__setattr__(self, "b3", _require_finite("b3", self.b3))
            if self.b2 <= 0 or self.b3 <= 0:
                raise ValidationError("enhanced exponents b2, b3 must be > 0")

    def coefficients(self) -> np.ndarray:
        if self.kind is ModelKind.PRIMITIVE:
            return np.array([self.b1])
        return np.array([self.b1, self.b2, self.b3])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output binning: n_bins bins of width dt covering (0, t_end].

    t_end must be an integer multiple of dt (to a relative 1e-9). The bins
    depend only on dt and n_bins, so two grids compare equal when those do,
    even where t_end differs in its last bits (a grid read back from its bin
    ends has t_end = n_bins * dt). The bin ends are computed on the first
    call to ``times``, as a read-only array that takes no part in equality,
    ``repr`` or pickling.
    """

    dt: float
    t_end: float = field(compare=False)
    n_bins: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", _require_finite("dt", self.dt))
        object.__setattr__(self, "t_end", _require_finite("t_end", self.t_end))
        if self.dt <= 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise ValidationError("t_end must be >= dt")
        # relative tolerance: 0.3 / 0.1 is 2.9999999999999996 in binary floats
        ratio = self.t_end / self.dt
        if not np.isfinite(ratio):
            raise ValidationError(f"t_end / dt overflows: {self.t_end} / {self.dt}")
        n_bins = round(ratio)
        if abs(ratio - n_bins) > 1e-9 * n_bins:
            raise ValidationError(
                f"t_end {self.t_end} is not an integer multiple of dt {self.dt}")
        object.__setattr__(self, "n_bins", n_bins)

    def __reduce__(self):
        return TimeGrid, (self.dt, self.t_end)

    def times(self) -> np.ndarray:
        """Bin-end times k*dt for k = 1..n_bins (read-only)."""
        times = self.__dict__.get("_times")
        if times is None:
            times = np.arange(1, self.n_bins + 1) * self.dt
            times.flags.writeable = False
            object.__setattr__(self, "_times", times)
        return times


@dataclass(eq=False)
class ReceivedSignal:
    """Time-binned cumulative hitting fraction.

    cumulative_fraction[k] is the fraction of emitted molecules absorbed by
    the end of bin k+1. Signals produced by the simulator and the analytic
    models are non-decreasing and confined to [0, 1]; noisy empirical targets
    handed to the fitter may violate that strict form, so the hard invariants
    are enforced by ``validate`` (which ``simulate_case`` calls on every
    signal it returns) rather than unconditionally at construction.
    """

    grid: TimeGrid
    cumulative_fraction: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.cumulative_fraction, dtype=float)
        if values.ndim != 1 or values.size != self.grid.n_bins:
            raise ValidationError(
                f"signal length {values.size} does not match grid n_bins {self.grid.n_bins}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("signal values must be finite")
        self.cumulative_fraction = values

    def validate(self) -> "ReceivedSignal":
        """Enforce the cumulative-fraction invariants (monotone, in [0, 1])."""
        v = self.cumulative_fraction
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise ValidationError("cumulative fractions must lie in [0, 1]")
        if np.any(np.diff(v) < -1e-12):
            raise ValidationError("cumulative fractions must be non-decreasing")
        return self

    @property
    def final_fraction(self) -> float:
        return float(self.cumulative_fraction[-1])
