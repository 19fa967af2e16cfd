"""Scenario configuration: geometry, radio, energy, densities, seeds.

A scenario bundles everything an experiment needs: the propagation
environment, the radio link budget, per-UAV energy constants, the
subregion rectangles with their density patterns, the depot location,
and the time horizon.  Scenarios load from a flat ``key = value`` text
format with one section per subregion, and round-trip exactly through
:func:`dump_scenario` / :func:`load_scenario`.  A section or key the
format does not have is an error, so a misspelling cannot silently
leave a default in place.

Densities come either literally from a pattern (traffic over rate times
reference cell area) or, for scheduling experiments, from the pattern's
normalized weekly shape rescaled into an explicit band of users/m^2.
The raw preset levels clamp to zero at night, where the placement
formulas degenerate, so the shipped scheduling scenarios use bands.
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import astuple, dataclass, fields, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .channel import Environment, RadioConfig, check_integer, environment_preset
from .patterns import (
    DensityPattern,
    Rect,
    Subregion,
    normalized_shape,
    parse_pattern_file,
    pattern_preset,
    reconstruct_series,
)
from .placement import EnergyParams

if TYPE_CHECKING:  # the annotations' module; parse_scenario imports it to parse
    import configparser


class ScenarioError(ValueError):
    """Invalid scenario contents (bad value or violated invariant)."""


@dataclass(frozen=True)
class Scenario:
    name: str
    env: Environment
    radio: RadioConfig
    energy: EnergyParams
    bounds: Rect
    subregions: Tuple[Subregion, ...]
    density_bands: Tuple[Optional[Tuple[float, float]], ...]
    rsc_position: Tuple[float, float, float]
    horizon_s: float
    slot_s: float
    seed: int = 0
    include_initial_launch: bool = False
    start_s: float = 0.0
    #: optional measured/synthetic per-slot densities overriding the
    #: pattern reconstruction; one tuple per subregion, wrapped periodically
    explicit_densities: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self):
        if not self.subregions:
            raise ScenarioError("scenario needs at least one subregion")
        _check_name("scenario name", self.name)
        _check_name("environment name", self.env.name)
        labels = [sub.label for sub in self.subregions]
        for label in labels:
            _check_name("subregion label", label)
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"subregion labels must be distinct, got {labels!r}")
        if len(self.density_bands) != len(self.subregions):
            raise ScenarioError("density_bands must align with subregions")
        try:
            check_integer("seed", self.seed, 0, "a nonnegative integer")
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if not (0 < self.horizon_s < math.inf and 0 < self.slot_s < math.inf):
            raise ScenarioError(
                f"horizon and slot must be finite and positive, got {self.horizon_s!r} s "
                f"and {self.slot_s!r} s"
            )
        ratio = self.horizon_s / self.slot_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError("horizon must be a whole number of slots")
        if self.n_slots < 1:
            raise ScenarioError(
                f"horizon {self.horizon_s!r} s is shorter than one slot of {self.slot_s!r} s"
            )
        start = self.start_s / self.slot_s
        if not 0 <= start < math.inf or abs(start - round(start)) > 1e-9:
            raise ScenarioError(
                f"start offset must be a finite, nonnegative whole number of slots, "
                f"got {self.start_s!r} s"
            )
        # on the slot grid exactly, so that a time axis read back from hours
        # (or scaled from them) names the same slots and densities
        object.__setattr__(self, "horizon_s", self.n_slots * self.slot_s)
        object.__setattr__(self, "start_s", round(start) * self.slot_s)
        if not all(map(math.isfinite, self.rsc_position)):
            raise ScenarioError(f"rsc position must be finite, got {self.rsc_position!r}")
        for i, sub in enumerate(self.subregions):
            r = sub.rect
            if not (
                self.bounds.contains(r.x, r.y)
                and self.bounds.contains(r.x + r.width, r.y + r.height)
            ):
                raise ScenarioError(f"subregion {sub.label!r} lies outside the considered area")
            for other in self.subregions[i + 1 :]:
                if r.overlaps(other.rect):
                    raise ScenarioError(
                        f"subregions {sub.label!r} and {other.label!r} overlap"
                    )
        for band in self.density_bands:
            if band is not None:
                lo, hi = band
                if not (0 < lo <= hi < math.inf):
                    raise ScenarioError("density band must satisfy 0 < low <= high < inf")
        if self.explicit_densities is not None:
            if len(self.explicit_densities) != len(self.subregions):
                raise ScenarioError("explicit_densities must align with subregions")
            for series in self.explicit_densities:
                if not series or not all(0 <= v < math.inf for v in series):
                    raise ScenarioError(
                        "explicit densities must be nonempty, finite and nonnegative"
                    )

    @property
    def n_slots(self) -> int:
        return int(round(self.horizon_s / self.slot_s))

    def with_mobility_power(self, p_m: float) -> "Scenario":
        """Same scenario with uniform mobility power on all three axes."""
        return replace(
            self,
            energy=replace(
                self.energy, p_horizontal=p_m, p_ascend=p_m, p_descend=p_m
            ),
        )


# what the scenario file format cannot carry in a name: '%' starts an
# interpolation, '#' after whitespace an inline comment, a line break ends
# the value, and surrounding whitespace is stripped on reading
_UNWRITABLE_NAME = re.compile(r"%|[\n\r]|(^|\s)#|^\s|\s$")


def _check_name(what: str, name: str) -> None:
    if _UNWRITABLE_NAME.search(name):
        raise ScenarioError(
            f"{what} {name!r} cannot be written to a scenario file: it must not "
            "contain '%', a line break, or a '#' at its start or after whitespace, "
            "nor start or end with whitespace"
        )


def slot_densities(scenario: Scenario) -> np.ndarray:
    """Per-subregion, per-slot user densities [users/m^2], shape (B, n).

    Banded subregions rescale the pattern's normalized shape into
    [low, high]; unbanded ones evaluate the literal pattern density, as
    :func:`patterns.user_density` does at each slot start.
    """
    n = scenario.n_slots
    out = np.empty((len(scenario.subregions), n))
    if scenario.explicit_densities is not None:
        start = int(round(scenario.start_s / scenario.slot_s))
        for b, series in enumerate(scenario.explicit_densities):
            arr = np.asarray(series, dtype=float)
            out[b] = arr[(start + np.arange(n)) % len(arr)]
        return out
    for b, (sub, band) in enumerate(zip(scenario.subregions, scenario.density_bands)):
        mu = sub.pattern.sample_period
        idx = np.floor((scenario.start_s + np.arange(n) * scenario.slot_s) / mu).astype(int)
        if band is None:
            radio = scenario.radio
            out[b] = reconstruct_series(sub.pattern, idx) / (radio.rate_bps * radio.bs_coverage_area)
        else:
            shape = normalized_shape(sub.pattern)
            lo, hi = band
            out[b] = lo + (hi - lo) * shape[idx % sub.pattern.n_samples]
    return out


def _table_defaults_energy(total_area: float, n_subregions: int) -> EnergyParams:
    # battery normalized so that subregion_area / (pi * E_b) = 1 m^2/J
    sub_area = total_area / n_subregions
    return EnergyParams(
        p_circuit=0.5,
        battery_j=sub_area / math.pi,
        p_horizontal=1.5,
        p_ascend=1.5,
        p_descend=1.5,
    )


def default_scenario() -> Scenario:
    """Defaults: urban, one 1000 m x 1000 m subregion, 24 h of 10 min slots."""
    bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
    sub = Subregion(label="E", rect=bounds, pattern=pattern_preset("E"))
    return Scenario(
        name="default",
        env=environment_preset("urban"),
        radio=RadioConfig(),
        energy=_table_defaults_energy(bounds.area, 1),
        bounds=bounds,
        subregions=(sub,),
        density_bands=(None,),
        rsc_position=(500.0, 500.0, 0.0),
        horizon_s=24 * 3600.0,
        slot_s=600.0,
    )


def reference_scenario(seed: int = 12060) -> Scenario:
    """The default day split into two equal-area subregions, desk-scale density band.

    The band [1e-7, 1e-6] users/m^2 keeps fleets small while separating
    the three mobility-power regimes (update-every-slot, hybrid, hold).
    """
    base = default_scenario()
    return replace(
        base,
        name="daily-two-zone",
        energy=_table_defaults_energy(base.bounds.area, 2),
        subregions=(
            Subregion(label="E", rect=Rect(0.0, 0.0, 500.0, 1000.0), pattern=pattern_preset("E")),
            Subregion(label="R", rect=Rect(500.0, 0.0, 500.0, 1000.0), pattern=pattern_preset("R")),
        ),
        density_bands=((1e-7, 1e-6), (1e-7, 1e-6)),
        seed=seed,
    )


# Every key of the four keyed sections, once: (key, field, numbers, unit).  The
# field is an attribute path from the section's object; numbers is how many the
# value holds (0: a word, an integer or a boolean); unit is how a number is written.
_KEYS = {
    "scenario": (
        ("name", "name", 0, "a word"),
        ("environment", "env.name", 0, "a word"),
        ("area", "bounds", 4, "as written"),
        ("rsc", "rsc_position", 3, "as written"),
        ("horizon_hours", "horizon_s", 1, "hours"),
        ("slot_seconds", "slot_s", 1, "seconds"),
        ("start_hours", "start_s", 1, "hours"),
        ("seed", "seed", 0, "an integer"),
        ("include_initial_launch", "include_initial_launch", 0, "a boolean"),
    ),
    "environment": (
        ("name", "name", 0, "a word"),
        *((key, key, 1, "as written") for key in ("a", "b", "eta_los", "eta_nlos")),
    ),
    **{
        section: tuple((f.name, f.name, 1, "as written") for f in fields(params))
        for section, params in (("radio", RadioConfig), ("energy", EnergyParams))
    },
}
# what one written number is worth in its field
_SCALE = {"hours": 3600.0, "seconds": 1.0, "as written": 1.0}

# the keys each section may set; "subregion" stands for every [subregion ...] section
_SECTION_KEYS = {section: {entry[0] for entry in keys} for section, keys in _KEYS.items()}
_SECTION_KEYS["subregion"] = {"label", "rect", "pattern", "density_band", "densities"}


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Raise ``ScenarioError`` on a section or key that the format lacks."""
    if parser.defaults():  # configparser would copy them into every section
        raise ScenarioError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        kind = "subregion" if section.startswith("subregion") else section
        if kind not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        unknown = [key for key in parser[section] if key not in _SECTION_KEYS[kind]]
        if unknown:
            raise ScenarioError(f"[{section}] has unknown key {', '.join(unknown)}")


def _floats(section: configparser.SectionProxy, key: str, n: int | None = 1) -> Tuple[float, ...]:
    """The finite numbers ``key`` holds in ``section``: exactly ``n`` unless ``n`` is None."""
    if key not in section:
        raise ScenarioError(f"[{section.name}] needs {key}")
    value = section[key]
    parts = value.split()
    if n is not None and len(parts) != n:
        need = "a number" if n == 1 else f"{n} numbers"
        raise ScenarioError(f"[{section.name}] {key} needs {need}, got {value!r}")
    try:
        numbers = tuple(float(p) for p in parts)
    except ValueError:
        raise ScenarioError(f"[{section.name}] {key} is not numeric: {value!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ScenarioError(f"[{section.name}] {key} must be finite, got {value!r}")
    return numbers


def _read(section: configparser.SectionProxy, key: str, numbers: int, unit: str):
    """The value of table key ``key`` in ``section``, as its field holds it."""
    if numbers:
        values = _floats(section, key, numbers)
        return values if numbers > 1 else values[0] * _SCALE[unit]
    value = section[key]
    try:
        if unit == "an integer":
            return int(value)
        if unit == "a boolean":
            return section.getboolean(key)
    except ValueError:
        raise ScenarioError(f"[{section.name}] {key} is not {unit}: {value!r}") from None
    return value


def _given(parser: configparser.ConfigParser, section: str, every_number: bool = False) -> dict:
    """Field -> value of each table key that [section] sets, or of every number."""
    if not parser.has_section(section):
        return {}
    s = parser[section]
    return {
        field: _read(s, key, numbers, unit)
        for key, field, numbers, unit in _KEYS[section]
        if key in s or (every_number and numbers)
    }


def _text(value, numbers: int, unit: str) -> str:
    """``value`` as a table key writes it; :func:`_read` reads it back."""
    if numbers > 1:
        return " ".join(map(repr, astuple(value) if isinstance(value, Rect) else value))
    if numbers:
        return repr(value / _SCALE[unit])
    return str(value).lower() if unit == "a boolean" else str(value)


def _parse_pattern_ref(
    section: configparser.SectionProxy, base_dir: str | None
) -> DensityPattern:
    """The pattern that ``section`` names; an error names the section and the file."""
    value = section.get("pattern", "preset:E").strip()
    try:
        if value.startswith("preset:"):
            return pattern_preset(value.split(":", 1)[1])
        if value.startswith("file:"):
            # an absolute path discards base_dir
            path = os.path.join(base_dir or "", value.split(":", 1)[1])
            with open(path) as fh:
                return parse_pattern_file(fh.read())
    except ValueError as exc:
        raise ScenarioError(f"[{section.name}] pattern {value!r}: {exc}") from None
    raise ScenarioError(
        f"[{section.name}] pattern must be 'preset:LABEL' or 'file:PATH', got {value!r}"
    )


def parse_scenario(text: str, base_dir: str | None = None) -> Scenario:
    """Parse scenario text; empty input yields the documented defaults.

    A section or key the format does not have, a missing required key
    and a value that does not parse raise ``ScenarioError`` naming the
    section and the key.
    """
    import configparser  # here, not at module level: only a parsed file needs it

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    _check_keys(parser)
    try:
        return _build_scenario(parser, base_dir)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _build_scenario(parser: configparser.ConfigParser, base_dir: str | None) -> Scenario:
    base = default_scenario()
    given = _given(parser, "scenario")
    named = given.pop("env.name", None)
    if parser.has_section("environment"):  # every number is required, the name is not
        env = Environment(**_given(parser, "environment", every_number=True))
        # a custom environment is dumped as the section and the key with its name
        if named not in (None, env.name):
            raise ScenarioError(
                f"[scenario] environment {named!r} does not match [environment] name {env.name!r}"
            )
    else:
        env = base.env if named is None else environment_preset(named)
    bounds = Rect(*given.pop("bounds")) if "bounds" in given else base.bounds
    given.setdefault("rsc_position", (*bounds.center, 0.0))  # the depot at the area's centre

    # defaults normalize the battery to the parsed area and zone count,
    # whether or not an [energy] section is present
    sections = [s for s in parser.sections() if s.startswith("subregion")]
    energy = _table_defaults_energy(bounds.area, max(1, len(sections)))
    energy = replace(energy, **_given(parser, "energy"))

    subregions, bands, explicit = [], [], []
    for section in sections:
        s = parser[section]
        label = s.get("label", section.split(None, 1)[-1])
        rect = Rect(*_floats(s, "rect", 4))
        subregions.append(Subregion(label, rect, _parse_pattern_ref(s, base_dir)))
        bands.append(_floats(s, "density_band", 2) if "density_band" in s else None)
        if "densities" in s:
            explicit.append(_floats(s, "densities", None))
    if explicit and len(explicit) < len(sections):
        missing = next(section for section in sections if "densities" not in parser[section])
        raise ScenarioError(f"[{missing}] needs densities: every subregion or none sets them")
    if not subregions:  # the default zone, spanning the area
        subregions = [replace(base.subregions[0], rect=bounds)]
        bands = list(base.density_bands)

    return replace(
        base, **given, env=env, radio=replace(base.radio, **_given(parser, "radio")),
        energy=energy, bounds=bounds, subregions=tuple(subregions), density_bands=tuple(bands),
        explicit_densities=tuple(explicit) if explicit else None,
    )


def load_scenario(path: str) -> Scenario:
    """:func:`parse_scenario` on the file at ``path``; its errors end naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
    except ScenarioError as exc:
        raise ScenarioError(f"{exc} (in {path})") from None


def dump_scenario(scenario: Scenario) -> str:
    """Serialize to the text format; inverse of :func:`parse_scenario`."""
    buf = io.StringIO()
    w = buf.write
    for section, params in zip(_KEYS, (scenario, scenario.env, scenario.radio, scenario.energy)):
        if section == "environment" and _is_preset(params):
            continue
        w(f"[{section}]\n" if section == "scenario" else f"\n[{section}]\n")
        for key, field, numbers, unit in _KEYS[section]:
            w(f"{key} = {_text(attrgetter(field)(params), numbers, unit)}\n")
    series_of = scenario.explicit_densities or [None] * len(scenario.subregions)
    for sub, band, series in zip(scenario.subregions, scenario.density_bands, series_of):
        w(f"\n[subregion {sub.label}]\n")
        w(f"label = {sub.label}\n")
        w(f"rect = {_text(sub.rect, 4, 'as written')}\n")
        known = _match_preset(sub.pattern)
        if known is None:
            raise ScenarioError(
                "cannot serialize a custom pattern inline; write it with "
                "dump_pattern() and reference it as file:PATH"
            )
        w(f"pattern = preset:{known}\n")
        if band is not None:
            w(f"density_band = {band[0]!r} {band[1]!r}\n")
        if series is not None:
            w("densities = " + " ".join(repr(v) for v in series) + "\n")
    return buf.getvalue()


def _is_preset(env: Environment) -> bool:
    """Whether ``env`` is exactly the preset its name selects."""
    try:
        return environment_preset(env.name) == env
    except ValueError:
        return False


def _match_preset(pattern: DensityPattern) -> Optional[str]:
    for label in ("E", "R", "T", "O", "C"):
        if pattern_preset(label) == pattern:
            return label
    return None
