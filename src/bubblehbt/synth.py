"""Synthetic correlation surfaces: exact, resolution-smeared, and noisy.

Forward model for what a coincidence experiment would record on a (q,
d_omega) grid.  Counting noise is Poisson on the coincidence numerator with
a fixed expected denominator N per bin; the whole surface draws from one
stream seeded by the noise seed, so generation is deterministic.

Poor energy resolution is modeled as a box average of the time factor over
a full width delta_omega, taken in closed form (`mean_time_factor`).

Surfaces round-trip through a CSV format (`write_surface_csv`,
`read_surface_csv`); the inversion of a surface is in `inference`.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .correlators import (CHAOTICITY, FACTORIZED_CASES, Values, excess,
                          form_factor)
# generate calls `excess`, not `correlation`; the name stays bound here
# because perfbench/tracing.py wraps `synth.correlation` (retire it with
# that wrapper, ROADMAP item 4)
from .correlators import correlation  # noqa: F401
from .sources import Emission, SourceCase, SourceSpec

__all__ = [
    "GridSpec",
    "NoiseSpec",
    "CorrelationSurface",
    "generate",
    "mean_time_factor",
    "apply_energy_smearing",
    "write_surface_csv",
    "read_surface_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing, finite q (1/um) and d_omega (1/ps) sample
    values."""

    q_values: Tuple[float, ...]
    d_omega_values: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        object.__setattr__(self, "d_omega_values",
                           tuple(float(w) for w in self.d_omega_values))
        if not self.q_values or not self.d_omega_values:
            raise ValueError("grid must be non-empty")
        # checked first: every comparison with NaN is False, so the order
        # checks below would pass it
        if not all(map(math.isfinite, self.q_values + self.d_omega_values)):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(self.q_values, self.q_values[1:])):
            raise ValueError("q_values must be strictly increasing")
        if any(b <= a for a, b in
               zip(self.d_omega_values, self.d_omega_values[1:])):
            raise ValueError("d_omega_values must be strictly increasing")
        if self.q_values[0] < 0.0:
            raise ValueError("q_values must be non-negative")

    def points(self) -> Tuple[np.ndarray, np.ndarray]:
        """q and d_omega of every grid point, q outer and d_omega inner."""
        nq, nw = len(self.q_values), len(self.d_omega_values)
        return np.repeat(self.q_values, nw), np.tile(self.d_omega_values, nq)


@dataclass(frozen=True)
class NoiseSpec:
    """Expected coincidence counts per bin at C = 1, and the RNG seed."""

    pairs_per_bin: int
    seed: int

    def __post_init__(self):
        if self.pairs_per_bin < 100:
            raise ValueError("pairs_per_bin must be at least 100")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class CorrelationSurface:
    """Tabulated correlation data, truth and observed channels.

    Flat arrays in row-major (q outer, d_omega inner) order.
    """

    q: np.ndarray
    d_omega: np.ndarray
    c_true: np.ndarray
    c_obs: np.ndarray
    sigma: np.ndarray
    spec: SourceSpec
    grid: GridSpec
    noise: Optional[NoiseSpec] = None
    smear_dw: Optional[float] = None


def mean_time_factor(spec: SourceSpec, delta_omega_window: float) -> float:
    """<T> over a box window of full width W = delta_omega_window, for the
    factorized cases, in closed form:

        A-C  T = exp(-(tau w)^2):         <T> = sqrt(pi) erf(x) / (2 x),
             x = tau W / 2;
        D    T = sinc^2(sqrt(3) tau w):   <T> = (Si(2y) - sin^2(y) / y) / y,
             y = sqrt(3) tau W / 2.

    Below x, y = 1e-3 each takes its Taylor series, whose next term is
    below 1e-19: there erf(x) / x loses its last bit and sin^2(y) can
    underflow."""
    if spec.case not in FACTORIZED_CASES:
        raise ValueError("smearing of the non-factorized case E is unsupported")
    if not 0.0 < delta_omega_window < math.inf:
        raise ValueError("smearing window must be positive and finite")
    if spec.case is SourceCase.D_EXPONENTIAL:
        y = 0.5 * math.sqrt(3.0) * spec.tau * delta_omega_window
        if y < 1e-3:
            return 1.0 - y * y * (1.0 / 9.0 - 2.0 * y * y / 225.0)
        from scipy import special

        si, _ = special.sici(2.0 * y)
        return float(si - math.sin(y) ** 2 / y) / y
    x = 0.5 * spec.tau * delta_omega_window
    if x < 1e-3:
        return 1.0 - x * x * (1.0 / 3.0 - x * x / 10.0)
    return math.sqrt(math.pi) * math.erf(x) / (2.0 * x)


def apply_energy_smearing(spec: SourceSpec, q: Values,
                          delta_omega_window: float) -> Values:
    """Smeared correlation value 1 + (1/2) <T> Phi(q), for a scalar q or an
    array of them."""
    mean_t = mean_time_factor(spec, delta_omega_window)
    return 1.0 + CHAOTICITY * mean_t * form_factor(spec.case, spec.R, q)


def generate(spec: SourceSpec, grid: GridSpec,
             noise: Optional[NoiseSpec] = None,
             smear_dw: Optional[float] = None) -> CorrelationSurface:
    """Tabulate c_true over all of the grid's points in one call; with
    `noise`, draw c_obs = n/N with n ~ Poisson(N c_true) and
    sigma = sqrt(c_true/N) per bin, all bins in one call on a generator
    seeded by `noise.seed`, in row-major order."""
    q, dw = grid.points()
    if smear_dw is not None and spec.emission is Emission.CHAOTIC:
        c_true = apply_energy_smearing(spec, q, smear_dw)
    else:
        c_true = 1.0 + excess(spec, q, dw)
    if noise is None:
        c_obs = c_true.copy()
        sigma = np.zeros_like(c_true)
    else:
        n_exp = noise.pairs_per_bin
        rng = np.random.default_rng(noise.seed)
        c_obs = rng.poisson(n_exp * c_true) / n_exp
        sigma = np.sqrt(c_true / n_exp)
    return CorrelationSurface(q=q, d_omega=dw, c_true=c_true, c_obs=c_obs,
                              sigma=sigma, spec=spec, grid=grid, noise=noise,
                              smear_dw=smear_dw)


# ---------------------------------------------------------------------------
# CSV serialization: '#'-prefixed key = value metadata, then a header line,
# then data rows with 17 significant digits and no '#' lines.  The CLI
# writes its other CSV outputs with the same formatter and metadata writer.

UNITS = "q in 1/um, d_omega in 1/ps"
_COLUMNS = ["q", "d_omega", "c_true", "c_obs", "sigma"]
_VALUE_FORMAT = "%.17g"  # 17 significant digits round-trip every float64


def format_value(x: float) -> str:
    return _VALUE_FORMAT % x


def spec_metadata(spec: SourceSpec) -> dict:
    """Metadata entries that pin down a source specification."""
    meta = {
        "case": spec.case.value,
        "emission": spec.emission.value,
        "tau_ps": format_value(spec.tau),
    }
    if spec.R is not None:
        meta["R_um"] = format_value(spec.R)
    if spec.r_dot is not None:
        meta["rdot_um_per_ps"] = format_value(spec.r_dot)
    return meta


def write_metadata(fh, meta: dict) -> None:
    for key, val in meta.items():
        fh.write(f"# {key} = {val}\n")


def surface_metadata(surface: CorrelationSurface) -> dict:
    meta = {"artifact": "correlation_surface",
            **spec_metadata(surface.spec)}
    meta["q_values_per_um"] = " ".join(
        format_value(v) for v in surface.grid.q_values)
    meta["d_omega_values_per_ps"] = " ".join(
        format_value(v) for v in surface.grid.d_omega_values)
    if surface.noise is not None:
        meta["pairs_per_bin"] = str(surface.noise.pairs_per_bin)
        meta["seed"] = str(surface.noise.seed)
    if surface.smear_dw is not None:
        meta["smear_dw_per_ps"] = format_value(surface.smear_dw)
    meta["units"] = UNITS
    return meta


def write_surface_csv(surface: CorrelationSurface, path: str) -> None:
    # each distinct q and d_omega (by bits: 0.0 and -0.0 stay apart) is
    # formatted once; c_true, c_obs and sigma are formatted per point
    table = np.empty((surface.q.size, len(_COLUMNS)), dtype=object)
    for col, values in enumerate((surface.q, surface.d_omega)):
        bits, inverse = np.unique(np.asarray(values, np.float64).view(
            np.uint64), return_inverse=True)
        text = [_VALUE_FORMAT % v for v in bits.view(np.float64).tolist()]
        table[:, col] = np.array(text, dtype=object)[inverse]
    table[:, 2:] = np.column_stack((surface.c_true, surface.c_obs,
                                    surface.sigma))
    row_format = ",".join(["%s", "%s"] + [_VALUE_FORMAT] * 3) + "\n"
    with open(path, "w") as fh:
        write_metadata(fh, surface_metadata(surface))
        fh.write(",".join(_COLUMNS) + "\n")
        fh.write((row_format * len(table)) % tuple(table.ravel().tolist()))


def _parse_metadata(lines: Sequence[str]) -> dict:
    meta = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    return meta


def _row_fault(path: str, first_row: int, width: int) -> str:
    """Name the first fault in a surface CSV's data rows, which start at
    1-based file line `first_row`; for when the one np.loadtxt over them
    has failed, so a good file is parsed once."""
    with open(path) as fh:
        rows = [(n, line.strip()) for n, line in enumerate(fh, 1)
                if n >= first_row and not line.isspace()]
    for n, line in rows:
        if line.startswith("#"):
            return f"surface CSV line {n}: '#' line among the data rows"
        for field in line.split(","):
            try:
                if field.strip():
                    np.loadtxt([field], delimiter=",", comments=None)
                    continue
            except ValueError:
                pass
            return f"surface CSV line {n}: '{field}' is not a number"
    # every field is a number, so the rows differ in width
    return f"surface CSV rows need {width} values"


def read_surface_csv(path: str) -> CorrelationSurface:
    """Read a surface CSV; its rows may come in any order and are returned
    in the grid's row-major order.  Malformed input raises ValueError."""
    header_lines = []
    columns = None
    with open(path) as fh:
        # '#' metadata and blank lines, then the header; one np.loadtxt
        # parses the non-blank lines after it straight from the file
        for n_header, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                columns = line.split(",")
                break
            header_lines.append(line)
        try:
            with warnings.catch_warnings():
                # numpy warns on input without rows; that is checked below
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt((line for line in fh if not line.isspace()),
                                 delimiter=",", ndmin=2, comments=None)
        except ValueError:
            arr = None  # the fault is named after the metadata checks
    if columns != _COLUMNS:
        raise ValueError(f"unexpected surface CSV columns: {columns}")
    meta = _parse_metadata(header_lines)
    if meta.get("artifact") != "correlation_surface":
        raise ValueError("not a correlation surface CSV")
    required = ["case", "tau_ps", "emission", "q_values_per_um",
                "d_omega_values_per_ps"]
    if "pairs_per_bin" in meta:
        required.append("seed")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError("surface CSV metadata lacks " + ", ".join(missing))
    spec = SourceSpec(
        case=SourceCase(meta["case"]),
        tau=float(meta["tau_ps"]),
        R=float(meta["R_um"]) if "R_um" in meta else None,
        r_dot=float(meta["rdot_um_per_ps"]) if "rdot_um_per_ps" in meta else None,
        emission=Emission(meta["emission"]),
    )
    grid = GridSpec(
        q_values=tuple(float(v) for v in meta["q_values_per_um"].split()),
        d_omega_values=tuple(
            float(v) for v in meta["d_omega_values_per_ps"].split()),
    )
    noise = None
    if "pairs_per_bin" in meta:
        noise = NoiseSpec(pairs_per_bin=int(meta["pairs_per_bin"]),
                          seed=int(meta["seed"]))
    smear_dw = float(meta["smear_dw_per_ps"]) if "smear_dw_per_ps" in meta else None
    if arr is not None and arr.size == 0:
        raise ValueError("surface CSV has no data rows")
    if arr is None or arr.shape[1] != len(columns):
        raise ValueError(_row_fault(path, n_header + 1, len(columns)))
    if not np.isfinite(arr).all():
        raise ValueError("surface CSV holds non-finite values")
    if (arr[:, 4] < 0.0).any():
        raise ValueError("surface CSV holds a negative sigma")
    # a surface is either noiseless or noisy in every bin; a zero sigma
    # among positive ones would be an infinite weight in the fits
    zero_sigma = arr[:, 4] == 0.0
    if zero_sigma.any() and not zero_sigma.all():
        raise ValueError("surface CSV mixes zero and positive sigma")
    # rows may come in any order, but must cover the grid point for point;
    # they are returned in the grid's row-major order
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    grid_q, grid_dw = grid.points()
    if arr.shape[0] != grid_q.size or not (
            np.array_equal(arr[:, 0], grid_q)
            and np.array_equal(arr[:, 1], grid_dw)):
        raise ValueError("surface CSV rows do not match its metadata grid")
    return CorrelationSurface(q=arr[:, 0], d_omega=arr[:, 1], c_true=arr[:, 2],
                              c_obs=arr[:, 3], sigma=arr[:, 4], spec=spec,
                              grid=grid, noise=noise, smear_dw=smear_dw)
