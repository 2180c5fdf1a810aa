"""Synthetic correlation surfaces: the grid, the counting noise and the
file.

A surface tabulates C = 1 + `correlators.excess` on a (q, d_omega) grid,
energy-smeared over a window smear_dw when one is given; the forward
model, smearing included, lives in `correlators` alone.  `tabulate` is
the one tabulation, for surfaces and the CLI alike, and the one place
that finds a C that is not finite, raising ArithmeticError at the first
such point in row-major order.  Counting noise is
Poisson on the coincidence numerator with a fixed expected denominator N
per bin; the whole surface draws from one stream seeded by the noise seed,
so generation is deterministic.

Every CSV, a surface's and the CLI's other outputs, is written by one
function, `write_table`: metadata, a header, then all rows in one %.
Surfaces round-trip through a CSV format of the observation, one line per
q (`write_surface_csv`, `read_surface_csv`): a noisy surface's integer
counts n = N c_obs, exact for the accepted 100 <= N <= 2**49, or a
noiseless surface's c_obs.  A count in the file is ASCII digits with an
optional '+' and no sign '-', decimal point or exponent, below 2**53: '+5'
is 5, and '-0', '5.0' and '1e3' are not counts.  A file needs the grid
(`q_values_per_um`, `d_omega_values_per_ps`), with `pairs_per_bin` and
`seed` for counts; the source keys (`case`, `emission`, `tau_ps`, `R_um`,
`rdot_um_per_ps`) are optional as a group, since an instrument records
none: a file names no source or a complete, valid one.  One table,
`_SOURCE_KEYS`, names each source key once with its SourceSpec field and
parser; `spec_metadata` writes from it and the reader parses from it, so
a value that does not parse, a bad `case` included, and a grid axis that
fails GridSpec's check are rejected naming their key and file line.  A read
surface computes c_true and sigma from its source on first access, and
has none without one.  `inference` reads only the observation: the grid,
c_obs, N and the smearing window, never c_true, sigma or the source.
"""

import functools
import operator
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from .correlators import check_window, excess
# tabulate calls `excess`, not `correlation`; the name stays bound here
# because perfbench/tracing.py wraps `synth.correlation` (retire it with
# that wrapper, ROADMAP item 4)
from .correlators import correlation  # noqa: F401
from .sources import Emission, SourceCase, SourceSpec

__all__ = [
    "GridSpec",
    "NoiseSpec",
    "CorrelationSurface",
    "tabulate",
    "generate",
    "write_surface_csv",
    "read_surface_csv",
]


def _checked_axis(name: str, values) -> np.ndarray:
    """Grid axis `name` ("q_values" or "d_omega_values") as a float64
    array: non-empty, finite and strictly increasing, q also non-negative;
    ValueError otherwise."""
    a = np.array(values, dtype=np.float64)
    if a.ndim != 1:
        raise TypeError("grid values must be a sequence of numbers")
    if not a.size:
        raise ValueError("grid must be non-empty")
    # checked first: every comparison with NaN is False, so the order
    # checks below would pass it
    if not np.isfinite(a).all():
        raise ValueError("grid values must be finite")
    if (a[1:] <= a[:-1]).any():
        raise ValueError(f"{name} must be strictly increasing")
    if name == "q_values" and a[0] < 0.0:
        raise ValueError("q_values must be non-negative")
    return a


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing, finite q (1/um) and d_omega (1/ps) sample
    values, q non-negative.

    Each axis is converted and checked once, as a read-only float64 array,
    `q_axis` and `d_omega_axis`; the fields keep the same values as tuples
    of floats, which equality, hashing and `dataclasses.replace` use.
    """

    q_values: Tuple[float, ...]
    d_omega_values: Tuple[float, ...]

    def __post_init__(self):
        q, dw = (_checked_axis(name, getattr(self, name))
                 for name in ("q_values", "d_omega_values"))
        points = (np.repeat(q, dw.size), np.tile(dw, q.size))
        for a in (q, dw) + points:
            a.flags.writeable = False
        for name, value in (("q_values", tuple(q.tolist())),
                            ("d_omega_values", tuple(dw.tolist())),
                            ("q_axis", q), ("d_omega_axis", dw),
                            ("_points", points)):
            object.__setattr__(self, name, value)

    def points(self) -> Tuple[np.ndarray, np.ndarray]:
        """q and d_omega of every grid point, q outer and d_omega inner:
        the same two read-only arrays on every call."""
        return self._points

    def __reduce__(self):
        # a copied or unpickled grid is made anew, so its arrays are
        # read-only too (pickle would restore them writeable)
        return GridSpec, (self.q_values, self.d_omega_values)


# A count in a surface CSV is below 2**53, so n / N as float64 takes it
# exactly.
_COUNT_LIMIT = 2 ** 53

# Every surface has C <= 3/2, so its counts stay below 2**50; for such a
# count n and N <= 2**49, fl(fl(n/N) N) lies within 0.25 of n, so
# rint(c_obs N) gives back the count drawn.
_MAX_PAIRS_PER_BIN = 2 ** 49


@dataclass(frozen=True)
class NoiseSpec:
    """Expected coincidence counts per bin at C = 1, an integer from 100 to
    2**49, and the RNG seed, a non-negative integer."""

    pairs_per_bin: int
    seed: int

    def __post_init__(self):
        for name in ("pairs_per_bin", "seed"):
            try:  # a float 1e6 would be written as 1000000.0
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            object.__setattr__(self, name, value)
        if self.pairs_per_bin < 100:
            raise ValueError("pairs_per_bin must be at least 100")
        if self.pairs_per_bin > _MAX_PAIRS_PER_BIN:
            raise ValueError("pairs_per_bin must be at most 2**49")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class CorrelationSurface:
    """Tabulated correlation data, truth and observed channels.

    Flat arrays in row-major (q outer, d_omega inner) order: q and d_omega
    are the grid's points, so each array is the grid's (nq, nw) matrix
    raveled, which `inference` relies on; a surface made otherwise raises
    ValueError.

    A CSV file holds the observation (counts or c_obs) and the grid, and
    may name the source.  When c_true and sigma are both given as None, as
    `read_surface_csv` gives them, they are computed from `spec` on first
    access, raising there the error `generate` would raise; without a
    source (spec None) they stay None.
    """

    q: np.ndarray
    d_omega: np.ndarray
    c_true: Optional[np.ndarray]
    c_obs: np.ndarray
    sigma: Optional[np.ndarray]
    spec: Optional[SourceSpec]
    grid: GridSpec
    noise: Optional[NoiseSpec] = None
    smear_dw: Optional[float] = None

    def __post_init__(self):
        q, dw = self.grid.points()
        deferred = self.c_true is None and self.sigma is None
        arrays = (self.q, self.d_omega, self.c_obs) + (
            () if deferred else (self.c_true, self.sigma))
        if not (all(np.shape(a) == q.shape for a in arrays)
                and (self.q == q).all() and (self.d_omega == dw).all()):
            raise ValueError("a surface's arrays must run over its grid's "
                             "points in row-major order")
        if deferred:
            # unset, they reach __getattr__ on first access
            del self.c_true, self.sigma

    def __getattr__(self, name):
        # called only for an attribute that is not set: c_true and sigma
        # once __post_init__ has deferred them
        if name not in ("c_true", "sigma"):
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self.c_true, self.sigma = (
            (None, None) if self.spec is None
            else _truth(self.spec, self.grid, self.noise, self.smear_dw))
        return getattr(self, name)


# a closed form that overflows ends in the one error below, not in warnings
@np.errstate(all="ignore")
def tabulate(spec: SourceSpec, grid: GridSpec,
             smear_dw: Optional[float] = None) -> np.ndarray:
    """The excess C - 1 of every grid point as the grid's (nq, nw) matrix,
    in one call on its (nq, 1) q column and (nw,) d_omega row.  A C that is
    not finite raises ArithmeticError naming the first such point in
    row-major order."""
    e = excess(spec, grid.q_axis[:, None], grid.d_omega_axis, smear_dw)
    if not np.isfinite(e).all():
        i = np.argmin(np.isfinite(e))  # the first non-finite point
        q, dw = grid.points()
        raise ArithmeticError(f"C is not finite at q = {format_value(q[i])}, "
                              f"d_omega = {format_value(dw[i])}")
    return e


def _truth(spec: SourceSpec, grid: GridSpec, noise: Optional[NoiseSpec],
           smear_dw: Optional[float]) -> Tuple[np.ndarray, np.ndarray]:
    """c_true and sigma = sqrt(c_true/N) (zeros without noise) of every
    grid point in row-major order."""
    c_true = 1.0 + tabulate(spec, grid, smear_dw).ravel()
    sigma = (np.zeros_like(c_true) if noise is None
             else np.sqrt(c_true / noise.pairs_per_bin))
    return c_true, sigma


def generate(spec: SourceSpec, grid: GridSpec,
             noise: Optional[NoiseSpec] = None,
             smear_dw: Optional[float] = None) -> CorrelationSurface:
    """Tabulate c_true over all of the grid's points in one call; with
    `noise`, draw c_obs = n/N with n ~ Poisson(N c_true) and
    sigma = sqrt(c_true/N) per bin, all bins in one call on a generator
    seeded by `noise.seed`, in row-major order."""
    c_true, sigma = _truth(spec, grid, noise, smear_dw)
    if noise is None:
        c_obs = c_true.copy()
    else:
        n_exp = noise.pairs_per_bin
        rng = np.random.default_rng(noise.seed)
        c_obs = rng.poisson(n_exp * c_true) / n_exp
    q, dw = grid.points()
    return CorrelationSurface(q=q, d_omega=dw, c_true=c_true, c_obs=c_obs,
                              sigma=sigma, spec=spec, grid=grid, noise=noise,
                              smear_dw=smear_dw)


# ---------------------------------------------------------------------------
# CSV serialization: '#'-prefixed key = value metadata, then a header line,
# then data rows and no '#' lines.  A surface's grid is in its metadata,
# and its rows hold the observation: one line per q, one value per d_omega,
# both in metadata order.  With `pairs_per_bin` in the metadata the header
# is `counts` and each value an integer count n = N c_obs below 2**53;
# without it the header is `c_obs` and each value c_obs with 17 significant
# digits.  The CLI writes its other CSV outputs with the same `write_table`
# and value format.

UNITS = "q in 1/um, d_omega in 1/ps"
VALUE_FORMAT = "%.17g"  # 17 significant digits round-trip every float64

# The source keys in file order: key -> (SourceSpec field, parser of the
# key's text).  `spec_metadata` writes every key whose field is set, and a
# surface CSV names no source or all of it: each key whose field cannot be
# None, with R_um and rdot_um_per_ps as its case needs them.
_SOURCE_KEYS = {
    "case": ("case", SourceCase),
    "emission": ("emission", Emission),
    "tau_ps": ("tau", float),
    "R_um": ("R", float),
    "rdot_um_per_ps": ("r_dot", float),
}


def format_value(x: float) -> str:
    return VALUE_FORMAT % x


def spec_metadata(spec: SourceSpec) -> dict:
    """Metadata entries that pin down a source specification: a key for
    each field that is set, in file order."""
    return {key: format_value(value) if parse is float else value.value
            for key, (field, parse) in _SOURCE_KEYS.items()
            if (value := getattr(spec, field)) is not None}


def write_metadata(fh, meta: dict) -> None:
    for key, val in meta.items():
        fh.write(f"# {key} = {val}\n")


def write_table(fh, meta: dict, header: str, formats: Sequence[str],
                values: Sequence) -> None:
    """Write a CSV to `fh`: the metadata, the header line, then one row per
    len(formats) of `values`, a flat sequence of whole rows, each value in
    its column's %-format.  All rows are formatted by one % over `values`,
    which is faster than a % per row."""
    write_metadata(fh, meta)
    fh.write(header + "\n")
    row = ",".join(formats) + "\n"
    fh.write((row * (len(values) // len(formats))) % tuple(values))


def surface_metadata(surface: CorrelationSurface) -> dict:
    meta = {"artifact": "correlation_surface"}
    if surface.spec is not None:
        meta.update(spec_metadata(surface.spec))
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


def _counts(c_obs: np.ndarray, pairs_per_bin: int) -> np.ndarray:
    """The counts rint(c_obs N) as int64; a ValueError unless each is a
    count n, from 0 (not -0) to 2**53 - 1, whose n/N is c_obs (see
    _MAX_PAIRS_PER_BIN)."""
    with np.errstate(all="ignore"):  # NaN and overflow fail the check
        n = np.rint(c_obs * pairs_per_bin)
        exact = (~np.signbit(n) & (n < _COUNT_LIMIT)
                 & (n / pairs_per_bin == c_obs))
    if not exact.all():
        raise ValueError("a noisy surface's c_obs must be counts / "
                         f"pairs_per_bin = {pairs_per_bin}")
    return n.astype(np.int64)


def write_surface_csv(surface: CorrelationSurface, path: str) -> None:
    """Write a surface: its counts if it is noisy, else its c_obs.  A noisy
    surface whose c_obs is not counts/N raises ValueError and leaves no
    file.  Counts are formatted as Python ints, which %d writes faster than
    integral floats, with the same text."""
    if surface.noise is None:
        header, value_format, values = "c_obs", VALUE_FORMAT, surface.c_obs
    else:
        header, value_format, values = "counts", "%d", _counts(
            surface.c_obs, surface.noise.pairs_per_bin)
    with open(path, "w") as fh:
        write_table(fh, surface_metadata(surface), header,
                    [value_format] * len(surface.grid.d_omega_values),
                    values.tolist())


def _parse_metadata(lines: Sequence[str]) -> Tuple[dict, dict]:
    """key -> value text, and key -> 1-based file line, of the metadata
    lines; ValueError naming both lines if a key is given twice."""
    meta, line_of = {}, {}
    for n, line in enumerate(lines, 1):
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, val = body.partition("=")
            key = key.strip()
            if key in meta:
                raise ValueError(f"surface CSV lines {line_of[key]} and {n}: "
                                 f"{key} given twice")
            meta[key] = val.strip()
            line_of[key] = n
    return meta, line_of


def _number(n: int, key: str, field: str, kind=float):
    """`field`, a value of metadata `key` on file line n, parsed by `kind`
    (float, int or an Enum of str values); ValueError naming the key and
    the line if it does not parse."""
    try:
        return kind(field)
    except ValueError:
        noun = ("a number" if kind is float else "an integer" if kind is int
                else "one of " + ", ".join(member.value for member in kind))
        raise ValueError(f"surface CSV line {n}: {key} = '{field}' "
                         f"is not {noun}") from None


def _axis(n: int, key: str, name: str, text: str) -> np.ndarray:
    """Grid axis `name` from the whitespace-separated numbers of metadata
    `key` on file line n, in one parse; if that fails, `_number` names the
    field that does not parse, and an axis that fails its check raises
    ValueError naming the line and the key."""
    texts = text.split()
    try:
        values = np.array(texts, dtype=np.float64)
    except ValueError:
        values = [_number(n, key, field) for field in texts]
    try:
        return _checked_axis(name, values)
    except ValueError as exc:
        raise ValueError(f"surface CSV line {n}: {key}: {exc}") from None


@functools.lru_cache(maxsize=1)
def _grid(q_line: int, q_text: str, dw_line: int, dw_text: str) -> GridSpec:
    """The grid of a surface CSV's `q_values_per_um` and
    `d_omega_values_per_ps` texts, on file lines q_line and dw_line.  The
    last grid read is kept: the files of a batch share their grid, and a
    GridSpec is frozen with read-only arrays, so sharing it is safe.  A
    grid that fails is not kept, so it raises on every read."""
    return GridSpec(
        q_values=_axis(q_line, "q_values_per_um", "q_values", q_text),
        d_omega_values=_axis(dw_line, "d_omega_values_per_ps",
                             "d_omega_values", dw_text))


def _parse_counts(lines: Sequence[str]) -> np.ndarray:
    """The comma-separated counts of `lines` as an int64 matrix, one row a
    line; ValueError unless every field is a count: ASCII digits with an
    optional '+', below 2**53.  numpy's integer parser takes '-0' as 0, and
    older numpy reads '5.0' and '1e3' through a float, so a sign '-', a
    decimal point or an exponent anywhere fails first."""
    text = "\n".join(lines)
    if any(c in text for c in "-.eE"):
        raise ValueError("not a count")
    counts = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                        dtype=np.int64)
    if (counts >= _COUNT_LIMIT).any():
        raise ValueError("not a count")
    return counts


def _row_fault(rows: Sequence, width: int, counts: bool) -> str:
    """Name the first fault in a surface CSV's data rows, (1-based file
    line, stripped text) pairs that hold counts if `counts`, once the one
    parse of them all has failed or given rows of the wrong width."""
    for n, line in rows:
        if line.startswith("#"):
            return f"surface CSV line {n}: '#' line among the data rows"
        for field in line.split(","):
            try:
                if not field.strip():  # np.loadtxt would warn, not raise
                    raise ValueError
                np.loadtxt([field], delimiter=",", comments=None)
            except ValueError:
                return f"surface CSV line {n}: '{field}' is not a number"
            if counts:
                try:
                    _parse_counts([field])
                except ValueError:
                    return f"surface CSV line {n}: '{field}' is not a count"
    # every field is a number, so the rows differ in width
    return f"surface CSV rows need {width} values"


def read_surface_csv(path: str) -> CorrelationSurface:
    """Read a surface CSV, once: the observation from its rows (c_obs = n/N
    from the counts of a noisy file, as `generate` divides), the grid, the
    source if the file names one, and the rest from its metadata.  c_true
    and sigma are left to be computed on first access (CorrelationSurface).
    Malformed input raises ValueError, a partial or invalid source and a
    window the source could not be smeared over included; the metadata is
    checked first, then the header it implies, then the rows."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    # '#' metadata and blank lines, then the header, then the data rows
    i_header = next((i for i, line in enumerate(lines)
                     if line and not line.startswith("#")), len(lines))
    meta, line_of = _parse_metadata(lines[:i_header])
    if meta.get("artifact") != "correlation_surface":
        raise ValueError("not a correlation surface CSV")
    sourced = not meta.keys().isdisjoint(_SOURCE_KEYS)
    q_key, dw_key = "q_values_per_um", "d_omega_values_per_ps"
    # a source needs the key of each field that cannot be None
    optional = {f.name for f in fields(SourceSpec) if f.default is None}
    required = [key for key, (field, _) in _SOURCE_KEYS.items()
                if sourced and field not in optional] + [q_key, dw_key]
    if "pairs_per_bin" in meta:
        required.append("seed")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError("surface CSV metadata lacks " + ", ".join(missing))
    source = {field: _number(line_of[key], key, meta[key], parse)
              for key, (field, parse) in _SOURCE_KEYS.items() if key in meta}
    number = {key: _number(line_of[key], key, meta[key], kind)
              for key, kind in [("smear_dw_per_ps", float),
                                ("pairs_per_bin", int), ("seed", int)]
              if key in meta}
    grid = _grid(line_of[q_key], meta[q_key], line_of[dw_key], meta[dw_key])
    spec = SourceSpec(**source) if sourced else None
    noise = (NoiseSpec(number["pairs_per_bin"], number["seed"])
             if "pairs_per_bin" in number else None)
    smear_dw = number.get("smear_dw_per_ps")
    if smear_dw is not None:  # checked whatever the emission, as in excess
        check_window(None if spec is None else spec.case, smear_dw)
    counts = noise is not None
    expected = "counts" if counts else "c_obs"
    header = lines[i_header] if i_header < len(lines) else None
    if header != expected:
        raise ValueError(f"surface CSV header {header!r} is not {expected!r}")
    rows = [(n, line) for n, line in enumerate(lines[i_header + 1:],
                                               i_header + 2) if line]
    if not rows:
        raise ValueError("surface CSV has no data rows")
    nq, nw = grid.q_axis.size, grid.d_omega_axis.size
    data = [line for _, line in rows]
    try:
        arr = (_parse_counts(data) if counts else
               np.loadtxt(data, delimiter=",", ndmin=2, comments=None))
    except ValueError:
        raise ValueError(_row_fault(rows, nw, counts)) from None
    if arr.shape[1] != nw:
        raise ValueError(_row_fault(rows, nw, counts))
    if len(arr) != nq:
        raise ValueError(f"surface CSV has {len(arr)} rows, its metadata "
                         f"grid {nq} q values")
    if counts:
        # each count is below 2**53, so it converts to float64 exactly
        c_obs = arr.ravel() / noise.pairs_per_bin
    elif np.isfinite(arr).all():
        c_obs = arr.ravel()
    else:
        raise ValueError("surface CSV holds non-finite values")
    q, dw = grid.points()
    return CorrelationSurface(q=q, d_omega=dw, c_true=None, c_obs=c_obs,
                              sigma=None, spec=spec, grid=grid, noise=noise,
                              smear_dw=smear_dw)
