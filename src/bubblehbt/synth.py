"""Synthetic correlation surfaces: exact, resolution-smeared, and noisy.

Forward model for what a coincidence experiment would record on a (q,
d_omega) grid.  Counting noise is Poisson on the coincidence numerator with
a fixed expected denominator N per bin; the whole surface draws from one
stream seeded by the noise seed, so generation is deterministic.

Poor energy resolution is modeled as a box average of the time factor over
a full width delta_omega, taken in closed form (`mean_time_factor`).

Surfaces round-trip through a CSV format of the observation, one line per
q (`write_surface_csv`, `read_surface_csv`): a noisy surface's integer
counts n = N c_obs, a noiseless surface's c_obs.  The reader takes the grid
and recomputes c_true and sigma from its metadata; `inference` inverts
them.
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

    Flat arrays in row-major (q outer, d_omega inner) order.  A CSV file
    holds the observation (counts or c_obs); the grid, c_true and sigma
    follow from its metadata.
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


# a closed form that overflows ends in the one error below, not in warnings
@np.errstate(all="ignore")
def _truth(spec: SourceSpec, grid: GridSpec, noise: Optional[NoiseSpec],
           smear_dw: Optional[float]) -> Tuple[np.ndarray, ...]:
    """q, d_omega, c_true and sigma = sqrt(c_true/N) (zeros without noise)
    of every grid point in row-major order, c_true in one call."""
    q, dw = grid.points()
    if smear_dw is not None and spec.emission is Emission.CHAOTIC:
        c_true = apply_energy_smearing(spec, q, smear_dw)
    else:
        c_true = 1.0 + excess(spec, q, dw)
    if not np.isfinite(c_true).all():
        i = np.argmin(np.isfinite(c_true))  # the first non-finite point
        raise ArithmeticError(f"C is not finite at q = {format_value(q[i])}, "
                              f"d_omega = {format_value(dw[i])}")
    sigma = (np.zeros_like(c_true) if noise is None
             else np.sqrt(c_true / noise.pairs_per_bin))
    return q, dw, c_true, sigma


def generate(spec: SourceSpec, grid: GridSpec,
             noise: Optional[NoiseSpec] = None,
             smear_dw: Optional[float] = None) -> CorrelationSurface:
    """Tabulate c_true over all of the grid's points in one call; with
    `noise`, draw c_obs = n/N with n ~ Poisson(N c_true) and
    sigma = sqrt(c_true/N) per bin, all bins in one call on a generator
    seeded by `noise.seed`, in row-major order."""
    q, dw, c_true, sigma = _truth(spec, grid, noise, smear_dw)
    if noise is None:
        c_obs = c_true.copy()
    else:
        n_exp = noise.pairs_per_bin
        rng = np.random.default_rng(noise.seed)
        c_obs = rng.poisson(n_exp * c_true) / n_exp
    return CorrelationSurface(q=q, d_omega=dw, c_true=c_true, c_obs=c_obs,
                              sigma=sigma, spec=spec, grid=grid, noise=noise,
                              smear_dw=smear_dw)


# ---------------------------------------------------------------------------
# CSV serialization: '#'-prefixed key = value metadata, then a header line,
# then data rows and no '#' lines.  A surface's grid is in its metadata,
# and its rows hold the observation: one line per q, one value per d_omega,
# both in metadata order.  With `pairs_per_bin` in the metadata the header
# is `counts` and each value the integer count n = N c_obs; without it the
# header is `c_obs` and each value c_obs with 17 significant digits.  The
# CLI writes its other CSV outputs with the same formatter and metadata
# writer.

UNITS = "q in 1/um, d_omega in 1/ps"
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


def _is_count(values: np.ndarray) -> np.ndarray:
    """Where `values` is a non-negative integer (not -0, not inf)."""
    return (np.isfinite(values) & ~np.signbit(values)
            & (values == np.rint(values)))


def _counts(c_obs: np.ndarray, pairs_per_bin) -> np.ndarray:
    """The counts n = N c_obs, as integral floats; a ValueError unless
    every c_obs is n/N, the value read back."""
    with np.errstate(all="ignore"):  # NaN and overflow fail the check
        n = np.rint(c_obs * pairs_per_bin)
        # c_obs N can round to the next count up or down (at and past
        # 2**53 the next float, a step of 2 or more)
        up = np.maximum(n + 1.0, np.nextafter(n, np.inf))
        down = np.minimum(n - 1.0, np.nextafter(n, -np.inf))
        for neighbour in (up, down):
            n = np.where(n / pairs_per_bin == c_obs, n, neighbour)
        exact = _is_count(n) & (n / pairs_per_bin == c_obs)
    if not exact.all():
        raise ValueError("a noisy surface's c_obs must be counts / "
                         f"pairs_per_bin = {pairs_per_bin}")
    return n


def write_surface_csv(surface: CorrelationSurface, path: str) -> None:
    """Write a surface: its counts if it is noisy, else its c_obs.  A noisy
    surface whose c_obs is not counts/N raises ValueError and leaves no
    file."""
    nq, nw = len(surface.grid.q_values), len(surface.grid.d_omega_values)
    if surface.noise is None:
        header, value_format, values = "c_obs", _VALUE_FORMAT, surface.c_obs
    else:
        header, value_format, values = "counts", "%d", _counts(
            surface.c_obs, surface.noise.pairs_per_bin)
    row_format = ",".join([value_format] * nw) + "\n"
    rows = (row_format * nq) % tuple(values.tolist())
    with open(path, "w") as fh:
        write_metadata(fh, surface_metadata(surface))
        fh.write(header + "\n")
        fh.write(rows)


def _parse_metadata(lines: Sequence[str]) -> dict:
    meta = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    return meta


def _row_fault(path: str, first_row: int, width: int, counts: bool) -> str:
    """Name the first fault in a surface CSV's data rows, which start at
    1-based file line `first_row` and hold counts if `counts`; for when the
    one np.loadtxt over them has failed or given a value that is not a
    count, so a good file is parsed once."""
    with open(path) as fh:
        rows = [(n, line.strip()) for n, line in enumerate(fh, 1)
                if n >= first_row and not line.isspace()]
    for n, line in rows:
        if line.startswith("#"):
            return f"surface CSV line {n}: '#' line among the data rows"
        for field in line.split(","):
            try:
                value = (np.loadtxt([field], delimiter=",", comments=None)
                         if field.strip() else None)
            except ValueError:
                value = None
            if value is None:
                return f"surface CSV line {n}: '{field}' is not a number"
            if counts and not _is_count(value):
                return f"surface CSV line {n}: '{field}' is not a count"
    # every field is a number, so the rows differ in width
    return f"surface CSV rows need {width} values"


def read_surface_csv(path: str) -> CorrelationSurface:
    """Read a surface CSV: the observation from its rows (c_obs = n/N from
    the counts of a noisy file, as `generate` divides), the grid and the
    rest from its metadata, c_true and sigma recomputed from that
    metadata.  Malformed input raises ValueError; the metadata is checked
    first, then the header it implies, then the rows."""
    header_lines = []
    header = None
    with open(path) as fh:
        # '#' metadata and blank lines, then the header; one np.loadtxt
        # parses the non-blank lines after it straight from the file
        for n_header, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                header = line
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
    grid = GridSpec(q_values=meta["q_values_per_um"].split(),
                    d_omega_values=meta["d_omega_values_per_ps"].split())
    noise = (NoiseSpec(pairs_per_bin=int(meta["pairs_per_bin"]),
                       seed=int(meta["seed"]))
             if "pairs_per_bin" in meta else None)
    smear_dw = float(meta["smear_dw_per_ps"]) if "smear_dw_per_ps" in meta else None
    counts = noise is not None
    expected = "counts" if counts else "c_obs"
    if header != expected:
        raise ValueError(f"surface CSV header {header!r} is not {expected!r}")
    if arr is not None and arr.size == 0:
        raise ValueError("surface CSV has no data rows")
    nq, nw = len(grid.q_values), len(grid.d_omega_values)
    if arr is None or arr.shape[1] != nw:
        raise ValueError(_row_fault(path, n_header + 1, nw, counts))
    if len(arr) != nq:
        raise ValueError(f"surface CSV has {len(arr)} rows, its metadata "
                         f"grid {nq} q values")
    if counts:
        if not _is_count(arr).all():
            raise ValueError(_row_fault(path, n_header + 1, nw, counts))
        c_obs = arr.ravel() / noise.pairs_per_bin
    elif np.isfinite(arr).all():
        c_obs = arr.ravel()
    else:
        raise ValueError("surface CSV holds non-finite values")
    q, dw, c_true, sigma = _truth(spec, grid, noise, smear_dw)
    return CorrelationSurface(q=q, d_omega=dw, c_true=c_true, c_obs=c_obs,
                              sigma=sigma, spec=spec, grid=grid, noise=noise,
                              smear_dw=smear_dw)
