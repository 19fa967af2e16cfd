import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrf.channel import Environment, RadioConfig, environment_preset
from uavrf.patterns import Rect, Subregion, constant_pattern, pattern_preset, user_density
from uavrf.placement import EnergyParams
from uavrf.scenario import (
    ScenarioError,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    reference_scenario,
    slot_densities,
)


def test_empty_text_gives_defaults():
    sc = parse_scenario("")
    assert sc == default_scenario()
    assert sc.env.name == "urban"
    assert sc.radio.noise_density == 5e-15
    assert sc.horizon_s == 24 * 3600.0
    assert sc.slot_s == 600.0
    assert len(sc.subregions) == 1
    assert sc.subregions[0].rect == Rect(0.0, 0.0, 1000.0, 1000.0)
    # the S/(pi E_b) = 1 normalization
    assert sc.subregions[0].area / (math.pi * sc.energy.battery_j) == pytest.approx(1.0)


@pytest.mark.parametrize("text", ["", "[scenario]\n", "[radio]\n", "[energy]\n"])
def test_empty_sections_give_defaults(text):
    # one parse path: an empty section changes nothing, the name included
    assert parse_scenario(text) == default_scenario()


def test_roundtrip_reference_scenario():
    sc = reference_scenario()
    assert parse_scenario(dump_scenario(sc)) == sc


def test_roundtrip_default_scenario():
    sc = default_scenario()
    assert parse_scenario(dump_scenario(sc)) == sc


def paper_day():
    """The reference day at the paper's densities, 0.1-1 users/m^2 per zone."""
    return dataclasses.replace(reference_scenario(), density_bands=((0.1, 1.0),) * 2)


@pytest.mark.parametrize(
    "make, name",
    [
        (default_scenario, "default_scenario.cfg"),
        (reference_scenario, "reference_scenario.cfg"),
        (paper_day, "paper_day.cfg"),
    ],
)
def test_dump_bytes_pinned(make, name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path) as fh:
        assert dump_scenario(make()) == fh.read()
    assert load_scenario(path) == make()


def test_roundtrip_from_file(tmp_path):
    sc = reference_scenario(seed=777)
    path = tmp_path / "scenario.cfg"
    path.write_text(dump_scenario(sc))
    assert load_scenario(str(path)) == sc


def test_negative_seed_rejected(tmp_path):
    # numpy rejected it only when fig10 drew a stream, naming neither
    path = tmp_path / "seed.cfg"
    path.write_text("[scenario]\nseed = -3\n")
    with pytest.raises(
        ScenarioError, match=r"^seed must be a nonnegative integer, got -3 \(in .*seed\.cfg\)$"
    ):
        load_scenario(str(path))
    with pytest.raises(ScenarioError, match="seed"):
        dataclasses.replace(reference_scenario(), seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(3.0), "3", None])
def test_seed_must_be_an_integer(seed):
    # a float seed constructed and failed only when fig10 drew a stream,
    # with numpy's "SeedSequence expects int or sequence of ints"
    with pytest.raises(ScenarioError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        dataclasses.replace(default_scenario(), seed=seed)


def test_numpy_integer_seed_accepted():
    sc = dataclasses.replace(default_scenario(), seed=np.int64(7))
    assert parse_scenario(dump_scenario(sc)) == sc


@pytest.mark.parametrize("area", ["0 0 500 500", "0 0 2000 2000", "-300 40 700 90"])
def test_default_subregion_spans_the_area(area):
    # the 1000 m x 1000 m default zone lay outside a smaller area, and in a
    # larger one gave S / (pi E_b) = 0.25 instead of 1
    sc = parse_scenario(f"[scenario]\narea = {area}\n")
    x, y, w, h = map(float, area.split())
    assert sc.bounds == Rect(x, y, w, h)
    assert sc.subregions == (dataclasses.replace(default_scenario().subregions[0], rect=sc.bounds),)
    assert sc.density_bands == (None,)
    assert sc.subregions[0].area / (math.pi * sc.energy.battery_j) == pytest.approx(1.0)
    assert sc.rsc_position == (x + w / 2.0, y + h / 2.0, 0.0)
    assert parse_scenario(dump_scenario(sc)) == sc


def test_overlapping_subregions_rejected():
    text = """
[scenario]
name = bad

[subregion A]
rect = 0 0 600 1000
pattern = preset:E

[subregion B]
rect = 500 0 500 1000
pattern = preset:R
"""
    with pytest.raises(ScenarioError, match="overlap"):
        parse_scenario(text)


def test_subregion_outside_bounds_rejected():
    text = """
[scenario]
area = 0 0 1000 1000

[subregion A]
rect = 600 0 500 1000
pattern = preset:E
"""
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario(text)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "width", "height"])
def test_rect_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="rectangle must be finite"):
        Rect(**{"x": 0.0, "y": 0.0, "width": 1.0, "height": 1.0, field: value})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "text, named",
    [
        ("[subregion A]\nrect = 0 0 {} 1000\n", "[subregion A] rect"),
        ("[scenario]\nrsc = {} 500 0\n", "[scenario] rsc"),
        ("[subregion A]\nrect = 0 0 500 1000\ndensities = {} 1e-6 2e-6\n", "[subregion A] densities"),
        ("[subregion A]\nrect = 0 0 500 1000\ndensity_band = 1e-7 {}\n", "[subregion A] density_band"),
        ("[scenario]\narea = 0 0 1000 {}\n", "[scenario] area"),
    ],
    ids=["rect", "rsc", "densities", "density_band", "area"],
)
def test_parse_rejects_non_finite_naming_the_key(text, named, value):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text.format(value))
    assert str(err.value).startswith(f"{named} must be finite")


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("rsc_position", (math.nan, 500.0, 0.0), "rsc position"),
        ("explicit_densities", ((1e-6, math.inf),), "explicit densities"),
        ("density_bands", ((1e-7, math.inf),), "density band"),
    ],
)
def test_scenario_rejects_non_finite(field, value, named):
    with pytest.raises(ScenarioError, match=named):
        dataclasses.replace(default_scenario(), **{field: value})


def test_horizon_must_be_slot_multiple():
    with pytest.raises(ScenarioError, match="whole number"):
        dataclasses.replace(default_scenario(), horizon_s=1000.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon_s", math.inf),
        ("horizon_s", math.nan),
        ("horizon_s", 0.0),
        ("slot_s", math.inf),
        ("slot_s", math.nan),
        ("slot_s", 1e14),  # horizon / slot rounds to 0 slots
        ("start_s", math.inf),
        ("start_s", math.nan),
    ],
)
def test_time_axis_must_be_finite_with_a_slot(field, value):
    with pytest.raises(ScenarioError, match="finite|shorter than one slot"):
        dataclasses.replace(default_scenario(), **{field: value})


def test_band_validation():
    with pytest.raises(ScenarioError, match="band"):
        dataclasses.replace(default_scenario(), density_bands=((0.0, 1.0),))


def test_scenario_needs_subregions_with_aligned_bands():
    sc = default_scenario()
    with pytest.raises(ScenarioError, match="at least one subregion"):
        dataclasses.replace(sc, subregions=(), density_bands=())
    with pytest.raises(ScenarioError, match="density_bands must align"):
        dataclasses.replace(sc, density_bands=sc.density_bands * 2)


def test_dump_refuses_a_custom_pattern():
    sc = default_scenario()
    sub = dataclasses.replace(sc.subregions[0], pattern=constant_pattern(1.0))
    with pytest.raises(ScenarioError, match="custom pattern inline"):
        dump_scenario(dataclasses.replace(sc, subregions=(sub,)))


def test_parse_error_reports_line():
    with pytest.raises(ScenarioError, match="parse error"):
        parse_scenario("[scenario\nname = broken\n")


def test_unknown_pattern_ref():
    text = """
[subregion A]
rect = 0 0 1000 1000
pattern = magic:Q
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_banded_densities_positive_and_shaped():
    sc = reference_scenario()
    lams = slot_densities(sc)
    assert lams.shape == (2, sc.n_slots)
    assert np.all(lams >= 1e-7 - 1e-20)
    assert np.all(lams <= 1e-6 + 1e-20)
    assert lams.min() < 2e-7 and lams.max() > 8e-7  # the band is exercised


def test_raw_densities_match_pattern(radio):
    sc = default_scenario()
    lams = slot_densities(sc)
    from uavrf.patterns import user_density

    for k in (0, 10, 100):
        expected = user_density(sc.subregions[0], k * sc.slot_s, sc.radio)
        assert lams[0, k] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from("ERTOC"),
    start_slot=st.integers(0, 2 * 4032),
    n_slots=st.integers(1, 4032),
)
def test_unbanded_densities_equal_user_density_bits(label, start_slot, n_slots):
    # the vectorized row equals the per-slot density at every slot start
    base = default_scenario()
    sub = Subregion(label=label, rect=base.bounds, pattern=pattern_preset(label))
    sc = dataclasses.replace(
        base, subregions=(sub,), start_s=start_slot * base.slot_s, horizon_s=n_slots * base.slot_s
    )
    row = slot_densities(sc)[0]
    expected = [user_density(sub, sc.start_s + k * sc.slot_s, sc.radio) for k in range(n_slots)]
    assert [float(v).hex() for v in row] == [v.hex() for v in expected]


def test_start_offset_shifts_densities():
    sc = reference_scenario()
    shifted = dataclasses.replace(sc, start_s=6 * 3600.0)
    base = slot_densities(sc)
    moved = slot_densities(shifted)
    k = int(6 * 3600.0 / sc.slot_s)
    assert np.allclose(moved[:, 0], base[:, k])


def test_explicit_densities_override():
    sc = dataclasses.replace(
        default_scenario(),
        explicit_densities=((1.0, 2.0, 3.0),),
        horizon_s=3 * 600.0,
    )
    assert np.allclose(slot_densities(sc), [[1.0, 2.0, 3.0]])
    wrapped = dataclasses.replace(sc, horizon_s=5 * 600.0)
    assert np.allclose(slot_densities(wrapped), [[1.0, 2.0, 3.0, 1.0, 2.0]])


def test_explicit_densities_validation():
    with pytest.raises(ScenarioError):
        dataclasses.replace(default_scenario(), explicit_densities=((1.0,), (2.0,)))
    with pytest.raises(ScenarioError):
        dataclasses.replace(default_scenario(), explicit_densities=((-1.0,),))


def test_with_mobility_power():
    sc = reference_scenario().with_mobility_power(7.5)
    assert sc.energy.p_horizontal == sc.energy.p_ascend == sc.energy.p_descend == 7.5


def test_custom_environment_section():
    text = """
[scenario]
name = custom-env

[environment]
a = 5.0
b = 0.3
eta_los = 0.5
eta_nlos = 12.0
"""
    sc = parse_scenario(text)
    assert sc.env.a == 5.0 and sc.env.eta_nlos == 12.0
    assert sc.env.name == "custom"


def test_roundtrip_with_start_offset():
    sc = dataclasses.replace(reference_scenario(), start_s=4 * 3600.0)
    assert parse_scenario(dump_scenario(sc)) == sc


def test_pattern_file_reference_relative_path(tmp_path):
    from uavrf.patterns import dump_pattern

    pattern = pattern_preset("T")
    (tmp_path / "custom.pat").write_text(dump_pattern(pattern))
    (tmp_path / "sc.cfg").write_text(
        """
[scenario]
name = file-pattern

[subregion Z]
rect = 0 0 1000 1000
pattern = file:custom.pat
density_band = 1e-7 1e-6
"""
    )
    sc = load_scenario(str(tmp_path / "sc.cfg"))
    got = sc.subregions[0].pattern
    assert got.scale == pattern.scale
    assert set(got.coefficients) == set(pattern.coefficients)
    for k in pattern.coefficients:
        assert got.coefficients[k] == pytest.approx(pattern.coefficients[k], rel=1e-12)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[radio]\ncarier_hz = 5e9\n", r"\[radio\] has unknown key carier_hz"),
        ("[energy]\nbatery_j = 5\n", r"\[energy\] has unknown key batery_j"),
        ("[scenario]\nhorizon_hour = 2\n", r"\[scenario\] has unknown key horizon_hour"),
        ("[scenario]\nlight_speed = 3e8\n", r"\[scenario\] has unknown key light_speed"),
        ("[subregion A]\nrect = 0 0 10 10\ncolour = red\n",
         r"\[subregion A\] has unknown key colour"),
        ("[enrgy]\np_circuit = 2\n", r"unknown section \[enrgy\]"),
        ("[Scenario]\nname = x\n", r"unknown section \[Scenario\]"),
        ("[DEFAULT]\nhorizon_hours = 2\n", r"unknown section \[DEFAULT\]"),
    ],
)
def test_unknown_sections_and_keys_rejected(text, named):
    # a misspelled key or section used to parse and silently keep the default
    with pytest.raises(ScenarioError, match=named):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[environment]\nb = 0.3\neta_los = 1\neta_nlos = 20\n", r"\[environment\] needs a"),
        ("[subregion A]\npattern = preset:E\n", r"\[subregion A\] needs rect"),
        ("[radio]\ncarrier_hz = fast\n", r"\[radio\] carrier_hz is not numeric: 'fast'"),
        ("[energy]\np_circuit =\n", r"\[energy\] p_circuit needs a number, got ''"),
        ("[scenario]\nseed = 1.5\n", r"\[scenario\] seed is not an integer: '1.5'"),
        ("[scenario]\ninclude_initial_launch = ture\n",
         r"\[scenario\] include_initial_launch is not a boolean: 'ture'"),
        ("[scenario]\ninclude_initial_launch = 2\n",
         r"\[scenario\] include_initial_launch is not a boolean: '2'"),
        ("[scenario]\nrsc = 0 0\n", r"\[scenario\] rsc needs 3 numbers"),
        ("[subregion A]\nrect = 0 0 10 10\ndensities = 1e-6 x\n",
         r"\[subregion A\] densities is not numeric"),
    ],
)
def test_missing_or_malformed_values_name_section_and_key(text, named):
    with pytest.raises(ScenarioError, match=named):
        parse_scenario(text)


@pytest.mark.parametrize("value, launch", [("on", True), ("Yes", True), ("off", False)])
def test_include_initial_launch_reads_configparser_booleans(value, launch):
    sc = parse_scenario(f"[scenario]\ninclude_initial_launch = {value}\n")
    assert sc.include_initial_launch is launch


@pytest.mark.parametrize("with_densities, missing", [("A", "B"), ("B", "A")])
def test_densities_on_some_subregions_name_one_without(with_densities, missing):
    # explicit densities cover every subregion or none: the error names a
    # section that lacks them, not the aligned tuple they would build
    text = "".join(
        f"[subregion {label}]\nrect = {x} 0 500 1000\n"
        + ("densities = 1e-6 2e-6\n" if label == with_densities else "")
        for label, x in (("A", 0), ("B", 500))
    )
    named = rf"^\[subregion {missing}\] needs densities: every subregion or none sets them$"
    with pytest.raises(ScenarioError, match=named):
        parse_scenario(text)


def test_missing_energy_section_normalizes_like_empty_one():
    text = """
[scenario]
area = 0 0 2000 2000

[subregion A]
rect = 0 0 1000 2000
pattern = preset:E

[subregion B]
rect = 1000 0 1000 2000
pattern = preset:R
"""
    without = parse_scenario(text)
    with_empty = parse_scenario(text + "\n[energy]\n")
    # each 2e6 m^2 zone gets S / (pi E_b) = 1
    assert without.energy.battery_j == pytest.approx(636619.8, abs=0.1)
    assert without == with_empty


_CUSTOM_ENV = "[environment]\na = 5.0\nb = 0.3\neta_los = 0.5\neta_nlos = 12.0\n"


@pytest.mark.parametrize(
    "key, section_name, shown",
    [("bogus", "", "'custom'"), ("suburban", "", "'custom'"), ("urban", "name = myenv\n", "'myenv'"),
     ("myenv", "name = other\n", "'other'")],
    ids=["bogus", "preset-next-to-custom", "preset-next-to-named", "other-name"],
)
def test_environment_key_must_match_the_section(key, section_name, shown):
    # the key next to a custom section was silently ignored
    text = f"[scenario]\nenvironment = {key}\n\n" + _CUSTOM_ENV + section_name
    named = rf"^\[scenario\] environment '{key}' does not match \[environment\] name {shown}$"
    with pytest.raises(ScenarioError, match=named):
        parse_scenario(text)


@pytest.mark.parametrize(
    "key, section_name", [("custom", ""), ("myenv", "name = myenv\n")], ids=["custom", "named"]
)
def test_environment_key_matching_the_section_accepted(key, section_name):
    sc = parse_scenario(f"[scenario]\nenvironment = {key}\n\n" + _CUSTOM_ENV + section_name)
    assert sc.env == Environment(a=5.0, b=0.3, eta_los=0.5, eta_nlos=12.0, name=key)


def test_renamed_custom_environment_roundtrips():
    env = Environment(a=5.0, b=0.3, eta_los=0.5, eta_nlos=12.0, name="myenv")
    sc = dataclasses.replace(reference_scenario(), env=env)
    # both the key and the section, which the key must match on reading
    text = dump_scenario(sc)
    assert "\nenvironment = myenv\n" in text
    assert "\n[environment]\nname = myenv\na = 5.0\n" in text
    assert parse_scenario(dump_scenario(sc)) == sc


def test_modified_preset_environment_roundtrips():
    env = dataclasses.replace(environment_preset("urban"), eta_nlos=30.0)
    sc = dataclasses.replace(reference_scenario(), env=env)
    back = parse_scenario(dump_scenario(sc))
    assert back.env.eta_nlos == 30.0
    assert back == sc


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_radio_and_energy_fields_roundtrip(data):
    # every field of both dataclasses is written and read back exactly
    def drawn(cls):
        values = {}
        for field in dataclasses.fields(cls):
            low = 0.0 if field.name.startswith("p_") else 1e-12  # powers may be 0
            # a radio needs a finite 2^(rate_bps / bandwidth_hz) - 1, so
            # rate_bps stays within 1000 bandwidths (drawn before it)
            high = min(1e12, 1000.0 * values["bandwidth_hz"]) if field.name == "rate_bps" else 1e12
            values[field.name] = data.draw(
                st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False),
                label=f"{cls.__name__}.{field.name}",
            )
        return cls(**values)

    radio, energy = drawn(RadioConfig), drawn(EnergyParams)
    sc = dataclasses.replace(reference_scenario(), radio=radio, energy=energy)
    assert parse_scenario(dump_scenario(sc)) == sc


_PRESETS = [environment_preset(n) for n in ("urban", "dense-urban", "suburban")]
_positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_extent = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
_density = st.floats(min_value=1e-9, max_value=10.0, allow_nan=False)


@st.composite
def _environments(draw):
    name = draw(st.one_of(
        st.sampled_from(["urban", "dense-urban", "suburban", "custom", "Urban"]),
        st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True),
    ))
    constants = draw(st.one_of(
        st.sampled_from([(e.a, e.b, e.eta_los, e.eta_nlos) for e in _PRESETS]),
        st.tuples(_positive, _positive, _positive, _positive).map(
            lambda c: (c[0], c[1], min(c[2:]), max(c[2:]))
        ),
    ))
    return Environment(*constants, name=name)


# names drawn mostly from characters the format carries, some from any text
_names = st.one_of(
    st.from_regex(r"[A-Za-z0-9_.:;=\[\]#-]([A-Za-z0-9 _.:;=\[\]#%-]{0,6}[A-Za-z0-9_.:;=\]#-])?",
                  fullmatch=True),
    st.text(max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(
    env=_environments(),
    by_name=st.booleans(),
    area=st.tuples(_coordinate, _coordinate, _extent, _extent),
    bands=st.lists(
        st.one_of(st.none(), st.tuples(_density, _density).map(lambda b: tuple(sorted(b)))),
        min_size=1,
        max_size=3,
    ),
    energy_section=st.booleans(),
    names=st.lists(_names, min_size=5, max_size=5),
    rsc=st.none() | st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
    slot_s=st.floats(min_value=1.0, max_value=86400.0),
    n_slots=st.integers(min_value=1, max_value=48),
    start_slot=st.integers(min_value=0, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**64),
    launch=st.booleans(),
    # per-zone series of unequal lengths, zeros allowed
    series=st.one_of(st.none(), st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
        min_size=3, max_size=3,
    )),
)
def test_parse_dump_parse_roundtrip(env, by_name, area, bands, energy_section, names, series,
                                   rsc, slot_s, n_slots, start_slot, seed, launch):
    x, y, w, h = area
    lines = [
        "[scenario]", "name = drawn", f"area = {x!r} {y!r} {w!r} {h!r}",
        f"horizon_hours = {n_slots * slot_s / 3600.0!r}", f"slot_seconds = {slot_s!r}",
        f"start_hours = {start_slot * slot_s / 3600.0!r}", f"seed = {seed}",
        f"include_initial_launch = {str(launch).lower()}",
    ]
    if rsc is not None:
        lines.append("rsc = " + " ".join(map(repr, rsc)))
    if by_name and env in _PRESETS:
        lines.append(f"environment = {env.name}")
    else:
        lines += [
            "", "[environment]", f"name = {env.name}", f"a = {env.a!r}", f"b = {env.b!r}",
            f"eta_los = {env.eta_los!r}", f"eta_nlos = {env.eta_nlos!r}",
        ]
    if energy_section:
        lines += ["", "[energy]"]
    # zones of half a column each, separated by gaps, inside the area
    step = w / len(bands)
    for i, band in enumerate(bands):
        lines += ["", f"[subregion Z{i}]", f"rect = {x + i * step!r} {y!r} {step / 2!r} {h / 2!r}",
                  "pattern = preset:" + "ERTOC"[i]]
        if band is not None:
            lines.append(f"density_band = {band[0]!r} {band[1]!r}")
        if series is not None:
            lines.append("densities = " + " ".join(map(repr, series[i])))
    sc = parse_scenario("\n".join(lines) + "\n")
    if series is not None:
        assert sc.explicit_densities == tuple(map(tuple, series[: len(bands)]))
    assert sc.env == env
    assert sc.bounds == Rect(x, y, w, h)
    assert sc.density_bands == tuple(bands)
    assert sc.energy.battery_j == w * h / len(bands) / math.pi
    assert sc.rsc_position == (rsc or (x + w / 2.0, y + h / 2.0, 0.0))
    assert (sc.slot_s, sc.horizon_s, sc.start_s) == (slot_s, n_slots * slot_s, start_slot * slot_s)
    assert (sc.seed, sc.include_initial_launch) == (seed, launch)
    back = parse_scenario(dump_scenario(sc))
    assert back == sc
    np.testing.assert_array_equal(slot_densities(back), slot_densities(sc))
    # every scenario that constructs with these names must reload as itself
    try:
        named = dataclasses.replace(
            sc,
            name=names[0],
            env=dataclasses.replace(sc.env, name=names[1]),
            subregions=tuple(
                dataclasses.replace(sub, label=label)
                for sub, label in zip(sc.subregions, names[2:])
            ),
        )
    except ScenarioError:
        return
    assert parse_scenario(dump_scenario(named)) == named


@pytest.mark.parametrize("field", ["name", "env", "label"])
@pytest.mark.parametrize(
    "bad", ["50%", "a%b", "a #b", "a\t#b", "#a", "a\nb", "a\rb", " a", "a "]
)
def test_unwritable_names_rejected(field, bad):
    base = reference_scenario()
    with pytest.raises(ValueError, match="cannot be written"):
        if field == "name":
            dataclasses.replace(base, name=bad)
        elif field == "env":
            dataclasses.replace(base, env=dataclasses.replace(base.env, name=bad))
        else:
            sub = dataclasses.replace(base.subregions[0], label=bad)
            dataclasses.replace(base, subregions=(sub,) + base.subregions[1:])


def test_duplicate_subregion_labels_rejected():
    base = reference_scenario()
    sub = dataclasses.replace(base.subregions[1], label=base.subregions[0].label)
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(base, subregions=(base.subregions[0], sub))


def test_subregion_section_without_label_or_name():
    sc = parse_scenario("[subregion ]\nrect = 0 0 10 10\n")
    assert sc.subregions[0].label == "subregion"


@settings(max_examples=40, deadline=None)
@given(
    n_slots=st.integers(min_value=1, max_value=1008),
    start_slot=st.integers(min_value=0, max_value=4031),
    slot_s=st.sampled_from([600.0, 300.0, 900.0, 7.5]),
)
@example(n_slots=13, start_slot=49, slot_s=600.0)
def test_time_axis_roundtrips_exactly(n_slots, start_slot, slot_s):
    # hours are not exact in binary: 13 slots of 600 s read back from
    # horizon_hours as 7799.999999999999 s, and slot 49 from start_hours as
    # 29399.999999999996 s, which floors to the previous pattern sample
    sc = dataclasses.replace(
        reference_scenario(), slot_s=slot_s, horizon_s=n_slots * slot_s,
        start_s=start_slot * slot_s,
    )
    back = parse_scenario(dump_scenario(sc))
    assert back == sc
    assert (back.horizon_s, back.start_s) == (n_slots * slot_s, start_slot * slot_s)
    np.testing.assert_array_equal(slot_densities(back), slot_densities(sc))


def test_time_axis_lands_on_the_slot_grid():
    sc = dataclasses.replace(default_scenario(), horizon_s=13 * 600.0 / 3600.0 * 3600.0,
                             start_s=49 * 600.0 / 3600.0 * 3600.0)
    assert (sc.horizon_s, sc.start_s) == (7800.0, 29400.0)


@pytest.mark.parametrize(
    "pattern_text, named",
    [
        ("gamma_r 1.0\nN 8\n0 1.0 0.0\n5 1 0\n", "line 4: coefficient index 5"),
        ("gamma_r 1.0\nN 0\n0 1.0 0.0\n", "line 2: N must be finite and positive"),
        ("gamma_r 1.0\nmu_seconds 0\n0 1.0 0.0\n", "line 2: mu_seconds must be finite"),
    ],
    ids=["index", "N", "mu_seconds"],
)
def test_pattern_file_errors_name_section_and_file(tmp_path, pattern_text, named):
    (tmp_path / "bad.pat").write_text(pattern_text)
    (tmp_path / "sc.cfg").write_text(
        "[subregion A]\nrect = 0 0 1000 1000\npattern = file:bad.pat\n"
    )
    with pytest.raises(ScenarioError, match=r"^\[subregion A\] pattern 'file:bad.pat': .*" + named):
        load_scenario(str(tmp_path / "sc.cfg"))


def test_unknown_pattern_preset_names_the_section():
    with pytest.raises(ScenarioError, match=r"^\[subregion A\] pattern 'preset:X': unknown"):
        parse_scenario("[subregion A]\nrect = 0 0 1000 1000\npattern = preset:X\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[subregion A]\nrect = 0 0 1000 1000\n[subregion B]\nrect = 0 0 0 10\n",
         "[subregion B] rect: rectangle sides must be positive"),
        ("[scenario]\narea = 0 0 -1000 1000\n", "[scenario] area: rectangle sides must be positive"),
        ("[energy]\nbattery_j = -1\n", "[energy] battery_j must be finite and positive, got -1.0"),
        ("[radio]\nrate_bps = 0\n", "[radio] rate_bps must be finite and positive, got 0.0"),
        ("[environment]\na = 10\nb = 0.6\neta_los = 20\neta_nlos = 1\n",
         "[environment] excess losses must satisfy eta_nlos >= eta_los"),
    ],
    ids=["subregion-rect", "scenario-area", "energy", "radio", "environment"],
)
def test_invalid_values_name_their_section(tmp_path, text, message):
    # each value parses, so only the object built from it can reject it;
    # the error names the section it came from, and the file after it
    with pytest.raises(ScenarioError, match="^" + re.escape(message) + "$"):
        parse_scenario(text)
    (tmp_path / "bad.cfg").write_text(text)
    with pytest.raises(ScenarioError, match="^" + re.escape(f"{message} (in ")):
        load_scenario(str(tmp_path / "bad.cfg"))
