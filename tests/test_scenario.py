import json
import math

import numpy as np
import pytest

from uavlift import cases
from uavlift.cli import main
from uavlift.errors import ParseError, ValidationError
from uavlift.objective import nsd_scan
from uavlift.rng import SplitMix64
from uavlift.scenario import (
    ALTITUDE_LIMITS,
    COORD_LIMIT,
    DEFAULT_RF,
    ENERGY_LIMITS,
    MIN_SIDE,
    AreaBounds,
    ClusterSpec,
    RfParams,
    Scenario,
    UserArrays,
    UserDevice,
    UserView,
    check_altitude,
    generate_clustered,
    generate_uniform,
    load,
    save,
    scenario_from_dict,
    scenario_to_dict,
)

BOUNDS = AreaBounds(0, 250, 0, 250, 650, 650)


class TestTypes:
    def test_user_energy_must_be_positive(self):
        with pytest.raises(ValidationError):
            UserDevice(1.0, 2.0, 0.0)
        with pytest.raises(ValidationError):
            UserDevice(1.0, 2.0, -5.0)

    @pytest.mark.parametrize("field", ["rate", "bandwidth", "noise", "frequency", "p_max", "tau_th"])
    def test_rf_fields_positive(self, field):
        values = dict(rate=4e6, bandwidth=50e6, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)
        values[field] = 0.0
        with pytest.raises(ValidationError, match=field):
            RfParams(**values)

    def test_bounds_ordering(self):
        with pytest.raises(ValidationError):
            AreaBounds(5, 5, 0, 1, 1, 2)
        with pytest.raises(ValidationError):
            AreaBounds(0, 1, 3, 2, 1, 2)
        with pytest.raises(ValidationError):
            AreaBounds(0, 1, 0, 1, 0, 2)  # z_min must be > 0
        with pytest.raises(ValidationError):
            AreaBounds(0, 1, 0, 1, 5, 2)  # z_min <= z_max

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="int-1e400")]
    )
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            UserDevice(bad, 2.0, 100.0)
        with pytest.raises(ValidationError, match="finite"):
            UserDevice(1.0, 2.0, bad)
        with pytest.raises(ValidationError, match="rf.p_max"):
            RfParams(4e6, 50e6, 1e-14, 4e9, bad, 900)
        with pytest.raises(ValidationError, match="bounds.z_max"):
            AreaBounds(0, 1, 0, 1, 1, bad)

    def test_scenario_requires_users(self):
        with pytest.raises(ValidationError):
            Scenario(users=(), rf=RfParams(4e6, 50e6, 1e-14, 4e9, 0.5, 900), bounds=BOUNDS)

    def test_scenario_rejects_user_outside_area(self):
        with pytest.raises(ValidationError, match="outside"):
            Scenario(
                users=(UserDevice(-1.0, 10.0, 100.0),),
                rf=RfParams(4e6, 50e6, 1e-14, 4e9, 0.5, 900),
                bounds=BOUNDS,
            )


class TestGenerateUniform:
    def test_table_sized_instance(self):
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=1)
        assert len(s.users) == 200
        assert all(0 <= u.x <= 250 and 0 <= u.y <= 250 for u in s.users)
        assert all(4500 <= u.energy <= 18000 for u in s.users)
        assert s.seed == 1

    def test_degenerate_intervals(self):
        tiny = AreaBounds(0, MIN_SIDE, 0, MIN_SIDE, 1, 1)  # the input domain's smallest box
        s = generate_uniform(1, tiny, 5, 5, seed=123)
        u = s.users[0]
        assert 0 <= u.x <= MIN_SIDE and 0 <= u.y <= MIN_SIDE
        assert u.energy == 5.0

    def test_seed_determinism(self):
        a = generate_uniform(50, BOUNDS, 10, 20, seed=7)
        b = generate_uniform(50, BOUNDS, 10, 20, seed=7)
        assert a == b
        c = generate_uniform(50, BOUNDS, 10, 20, seed=8)
        assert a != c

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            generate_uniform(0, BOUNDS, 10, 20, seed=1)
        with pytest.raises(ValidationError):
            generate_uniform(5, BOUNDS, 20, 10, seed=1)  # empty energy interval
        with pytest.raises(ValidationError):
            generate_uniform(5, BOUNDS, 0, 10, seed=1)  # zero energy possible


class TestGenerateClustered:
    def test_density_contrast(self):
        dense = ClusterSpec(75, 150, 25, 150, 4500, 18000)
        sparse = ClusterSpec(200, 60, 25, 50, 4500, 18000)
        s = generate_clustered((dense, sparse), BOUNDS, seed=3)
        assert len(s.users) == 200
        # Count by the perpendicular bisector between the two centers: the
        # dense side must dominate roughly 3:1.
        mx, my = (75 + 200) / 2, (150 + 60) / 2
        nx, ny = 200 - 75, 60 - 150  # direction from dense toward sparse
        dense_side = sum(1 for u in s.users if (u.x - mx) * nx + (u.y - my) * ny < 0)
        assert dense_side >= 2 * (200 - dense_side)

    def test_std_zero_collapses_to_center(self):
        spec = ClusterSpec(100, 100, 0.0, 10, 5, 5)
        s = generate_clustered((spec,), BOUNDS, seed=1)
        assert all(u.x == 100.0 and u.y == 100.0 for u in s.users)

    def test_rejection_keeps_users_in_bounds(self):
        spec = ClusterSpec(5, 5, 40.0, 200, 1, 2)  # center near the corner
        s = generate_clustered((spec,), BOUNDS, seed=2)
        assert all(BOUNDS.contains_xy(u.x, u.y) for u in s.users)

    def test_seed_determinism(self):
        spec = ClusterSpec(100, 100, 20, 30, 10, 20)
        assert generate_clustered((spec,), BOUNDS, seed=5) == generate_clustered(
            (spec,), BOUNDS, seed=5
        )

    @pytest.mark.parametrize("field, value", [
        ("std", math.nan), ("std", math.inf), ("x", math.nan), ("energy_high", math.inf),
    ])
    def test_non_finite_field_names_the_field(self, field, value):
        fields = dict(x=100.0, y=100.0, std=20.0, count=3, energy_low=10.0, energy_high=20.0)
        fields[field] = value
        with pytest.raises(ValidationError, match=rf"cluster\.{field} must be finite"):
            ClusterSpec(**fields)

    def test_empty_cluster_list_rejected(self):
        with pytest.raises(ValidationError):
            generate_clustered((), BOUNDS, seed=1)

    def test_center_outside_bounds_rejected(self):
        with pytest.raises(ValidationError):
            generate_clustered((ClusterSpec(-10, 50, 5, 5, 1, 2),), BOUNDS, seed=1)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=42)
        path = tmp_path / "scenario.json"
        save(s, path)
        assert load(path) == s

    def test_clustered_round_trip(self, tmp_path):
        s = generate_clustered((ClusterSpec(50, 50, 10, 20, 1, 9),), BOUNDS, seed=6)
        path = tmp_path / "clustered.json"
        save(s, path)
        assert load(path) == s

    def test_dict_round_trip_preserves_every_bit(self):
        s = generate_uniform(25, BOUNDS, 4500, 18000, seed=11)
        again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
        for a, b in zip(s.users, again.users):
            assert (a.x, a.y, a.energy) == (b.x, b.y, b.energy)

    def test_negative_energy_is_validation_error(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(2, BOUNDS, 5, 6, seed=1))
        doc["users"]["energy"][1] = -3.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load(path)

    @pytest.mark.parametrize("record, field", [
        *(("rf", name) for name in ("rate", "bandwidth", "noise", "frequency", "p_max", "tau_th")),
        *(("bounds", name) for name in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")),
    ])
    def test_missing_record_field_names_the_field(self, tmp_path, record, field):
        doc = scenario_to_dict(generate_uniform(2, BOUNDS, 5, 6, seed=1))
        del doc[record][field]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=rf"^missing field '{record}\.{field}'$"):
            load(path)

    def test_missing_user_coordinate_names_the_field(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(5, BOUNDS, 5, 6, seed=1))
        del doc["users"]["y"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"^missing field 'users\.y'$"):
            load(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(1, BOUNDS, 5, 6, seed=1))
        doc["rf"]["rate"] = "fast"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="rf.rate"):
            load(path)

    @pytest.mark.parametrize(
        "literal",
        ["Infinity", "-Infinity", "NaN", "1e400", pytest.param("1" + "0" * 400, id="int-1e400")],
    )
    def test_non_finite_number_names_the_field(self, tmp_path, literal):
        doc = scenario_to_dict(generate_uniform(2, BOUNDS, 5, 6, seed=1))
        doc["users"]["energy"][1] = "NUMBER"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"NUMBER"', literal))
        with pytest.raises(ValidationError, match=r"users\[1\].energy"):
            load(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)

    def test_deeply_nested_json_is_parse_error(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="too deeply"):
            load(path)


def fields_hex(users) -> list[tuple[str, str, str]]:
    return [(u.x.hex(), u.y.hex(), u.energy.hex()) for u in users]


# The generators as they were before the draws were vectorized: one scalar
# draw at a time, x, y, then energy per user.
def reference_uniform(count, bounds, energy_low, energy_high, seed):
    gen = SplitMix64(seed)
    users = []
    for _ in range(count):
        x = gen.uniform(bounds.x_min, bounds.x_max)
        y = gen.uniform(bounds.y_min, bounds.y_max)
        users.append(UserDevice(x, y, gen.uniform(energy_low, energy_high)))
    return users


def reference_clustered(clusters, bounds, seed):
    gen = SplitMix64(seed)
    users = []
    for c in clusters:
        for _ in range(c.count):
            while True:
                x, y = gen.normal(c.x, c.std), gen.normal(c.y, c.std)
                if bounds.contains_xy(x, y):
                    break
            users.append(UserDevice(x, y, gen.uniform(c.energy_low, c.energy_high)))
    return users


class TestColumns:
    def test_users_are_a_read_only_view_over_contiguous_arrays(self):
        s = generate_uniform(50, BOUNDS, 4500, 18000, seed=4)
        assert isinstance(s.users, UserView)
        for a in s.users.arrays:
            assert a.dtype == np.float64 and a.flags.c_contiguous and len(a) == 50
            with pytest.raises(ValueError):
                a[0] = 1.0
        with pytest.raises(ValueError):
            s.users[10:20].arrays.es[0] = 1.0

    def test_sequence_protocol(self):
        s = generate_uniform(30, BOUNDS, 4500, 18000, seed=5)
        xs, ys, es = s.users.arrays
        devices = list(s.users)
        assert len(s.users) == 30 and len(devices) == 30
        assert s.users[3] == UserDevice(xs[3], ys[3], es[3]) == devices[3]
        assert s.users[-1] == devices[-1]
        assert isinstance(s.users[3], UserDevice) and type(s.users[3].x) is float
        with pytest.raises(IndexError):
            s.users[30]
        part = s.users[5:9]
        assert isinstance(part, UserView) and list(part) == devices[5:9]
        assert part.arrays.xs.base is not None  # a view, not a copy
        assert devices[7] in s.users and s.users.index(devices[7]) == 7

    def test_scenario_copies_the_arrays_it_is_given(self):
        xs, ys, es = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
        s = Scenario(users=UserArrays(xs, ys, es), rf=DEFAULT_RF, bounds=BOUNDS)
        xs[0] = 99.0
        assert s.users[0] == UserDevice(1.0, 3.0, 5.0)
        assert s == Scenario(
            users=(UserDevice(1, 3, 5), UserDevice(2, 4, 6)), rf=DEFAULT_RF, bounds=BOUNDS
        )
        assert Scenario(users=s.users, rf=DEFAULT_RF, bounds=BOUNDS) == s

    def test_equality_is_bitwise(self, tmp_path):
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=42)
        path = tmp_path / "s.json"
        save(s, path)
        assert load(path) == s and hash(load(path)) == hash(s)
        xs, ys, es = (a.copy() for a in s.users.arrays)
        xs[117] = np.nextafter(xs[117], np.inf)
        nudged = Scenario(users=UserArrays(xs, ys, es), rf=s.rf, bounds=s.bounds, seed=s.seed)
        assert nudged != s and nudged.users != s.users
        assert nudged.users[:117] == s.users[:117]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, math.nan, r"users\[1\]\.x must be finite"),
            (1, math.inf, r"users\[1\]\.y must be finite"),
            (2, -math.inf, r"users\[1\]\.energy must be finite"),
            (2, 0.0, r"users\[1\]\.energy must be positive, got 0\.0"),
            (0, 300.0, r"users\[1\] at \(300\.0, 1\.0\) lies outside"),
        ],
    )
    def test_array_validation_names_the_first_bad_user(self, column, value, message):
        columns = [np.ones(5), np.ones(5), np.ones(5)]
        columns[column][[1, 3]] = value
        with pytest.raises(ValidationError, match=message):
            Scenario(users=UserArrays(*columns), rf=DEFAULT_RF, bounds=BOUNDS)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            Scenario(users=UserArrays(np.ones(3), np.ones(2), np.ones(3)), rf=DEFAULT_RF, bounds=BOUNDS)
        with pytest.raises(ValidationError, match="at least one user"):
            Scenario(users=UserArrays(np.ones(0), np.ones(0), np.ones(0)), rf=DEFAULT_RF, bounds=BOUNDS)


class TestVectorizedGenerators:
    @pytest.mark.parametrize("count", [1, 200, 12000])
    @pytest.mark.parametrize("seed", [0, 9, 2**63, 2**64 - 1])
    def test_uniform_matches_the_scalar_reference(self, count, seed):
        s = generate_uniform(count, BOUNDS, 4500, 18000, seed=seed)
        assert fields_hex(s.users) == fields_hex(reference_uniform(count, BOUNDS, 4500, 18000, seed))

    def test_uniform_on_an_offset_box(self):
        bounds = AreaBounds(-30.5, 1e-3, 7.0, 7.25, 10, 10)
        s = generate_uniform(500, bounds, 0.125, 0.5, seed=77)
        assert fields_hex(s.users) == fields_hex(reference_uniform(500, bounds, 0.125, 0.5, 77))

    def test_clustered_matches_the_scalar_reference(self):
        clusters = (cases.DENSE, cases.SPARSE, ClusterSpec(5, 5, 40.0, 100, 1, 2))
        s = generate_clustered(clusters, BOUNDS, seed=3)
        assert fields_hex(s.users) == fields_hex(reference_clustered(clusters, BOUNDS, 3))

    @pytest.mark.parametrize(
        "z, pinned",
        [
            (650.0, ("proven", "-0x1.10da2021241a0p-17", None, None)),
            (
                30.0,
                (
                    "refuted",
                    "0x1.639cbd70310aep+0",
                    ("0x1.552e6e198bf38p+7", "0x1.7758f240a1039p+7"),
                    "0x1.91c5d2724e427p-5",
                ),
            ),
        ],
    )
    def test_canned_concavity_scan_is_unchanged(self, z, pinned):
        # The per-user bound, and the scan's first witness drawn with one
        # scalar draw per coordinate, x then y.
        s = generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED)
        scan = nsd_scan(s.users, z, cases.BOUNDS, samples=cases.SCAN_SAMPLES, seed=cases.SEED)
        witness = None if scan.witness is None else tuple(w.hex() for w in scan.witness)
        eigenvalue = None if scan.eigenvalue is None else scan.eigenvalue.hex()
        assert (scan.outcome, scan.hi.hex(), witness, eigenvalue) == pinned


# The input domain's corners: the widest and the narrowest box, the lowest
# and the highest altitude.
EXTREME_BOUNDS = AreaBounds(-(2.0**24), 2.0**24, -0.0, 2.0**-10, 2.0**-10, 2.0**24)
EXTREME_RF = RfParams(1e300, 5e-324, 1e-300, 4e9, 1.7976931348623157e308, 5e-324)


SAVE_CASES = [
    pytest.param(lambda: generate_uniform(1, BOUNDS, 4500, 18000, seed=1), id="n1"),
    pytest.param(lambda: generate_uniform(200, BOUNDS, 4500, 18000, seed=9), id="n200"),
    pytest.param(lambda: generate_uniform(12000, BOUNDS, 4500, 18000, seed=101), id="n12000"),
    pytest.param(
        lambda: generate_clustered((cases.DENSE, cases.SPARSE), BOUNDS, seed=3), id="clustered"
    ),
    pytest.param(
        lambda: Scenario(
            users=(UserDevice(3, 4, 5), UserDevice(250, 0, 1e-9)), rf=DEFAULT_RF, bounds=BOUNDS
        ),
        id="seed-none",
    ),
    pytest.param(
        lambda: Scenario(
            users=(
                UserDevice(-0.0, 5e-324, 1e270),
                UserDevice(2.0**24, 0.0, 5e-324),
                UserDevice(-(2.0**24), -0.0, 7e270),
                UserDevice(0.1, 2.5e-324, 0.30000000000000004),
            ),
            rf=EXTREME_RF,
            bounds=EXTREME_BOUNDS,
            seed=2**64 - 1,
        ),
        id="extreme-doubles",
    ),
]


class TestTotalEnergy:
    """Each energy is finite, but their sum, which every curvature bound
    takes, overflows: refused where a scenario is made, as a total beyond
    the input domain, without a warning."""

    pytestmark = pytest.mark.filterwarnings("error")
    MESSAGE = r"^the users' total energy must lie in \[.*\] J, got inf$"

    def test_scenario(self):
        users = (UserDevice(0, 0, 1e308), UserDevice(250, 250, 1e308))
        with pytest.raises(ValidationError, match=self.MESSAGE):
            Scenario(users=users, rf=DEFAULT_RF, bounds=BOUNDS)

    def test_generate_uniform(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            generate_uniform(2, BOUNDS, 1e308, 1e308, seed=1)

    def test_load(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(2, BOUNDS, 5, 6, seed=1))
        doc["users"]["energy"] = [1e308, 1e308]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=self.MESSAGE):
            load(path)


def beyond(value: float, outward: float) -> float:
    """The next double after `value` towards `outward`."""
    return math.nextafter(value, outward)


class TestInputDomain:
    """Each bound of the input domain at its edge: the edge value is
    accepted, and the next double beyond it is refused with a
    ValidationError naming the field."""

    pytestmark = pytest.mark.filterwarnings("error")
    WIDEST = dict(x_min=-COORD_LIMIT, x_max=COORD_LIMIT, y_min=-COORD_LIMIT, y_max=COORD_LIMIT,
                  z_min=1.0, z_max=1.0)

    @pytest.mark.parametrize("field, outward", [
        ("x_min", -math.inf), ("x_max", math.inf), ("y_min", -math.inf), ("y_max", math.inf),
    ])
    def test_box_edges(self, field, outward):
        AreaBounds(**self.WIDEST)
        with pytest.raises(ValidationError, match=rf"^bounds\.{field} must lie in "):
            AreaBounds(**{**self.WIDEST, field: beyond(self.WIDEST[field], outward)})

    @pytest.mark.parametrize("axis", "xy")
    def test_box_sides(self, axis):
        narrow = dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, z_min=1.0, z_max=1.0)
        AreaBounds(**{**narrow, f"{axis}_max": MIN_SIDE})
        with pytest.raises(ValidationError, match=rf"^bounds require {axis}_max - {axis}_min >= "):
            AreaBounds(**{**narrow, f"{axis}_max": beyond(MIN_SIDE, 0.0)})

    @pytest.mark.parametrize("field", ["z_min", "z_max"])
    def test_altitudes(self, field):
        low, high = ALTITUDE_LIMITS
        for edge, outward in ((low, 0.0), (high, math.inf)):
            AreaBounds(0, 1, 0, 1, edge, edge)
            pair = {"z_min": edge, "z_max": edge, field: beyond(edge, outward)}
            with pytest.raises(ValidationError, match=rf"^bounds\.{field} must lie in "):
                AreaBounds(0, 1, 0, 1, pair["z_min"], pair["z_max"])

    def test_one_altitude_rule(self):
        low, high = ALTITUDE_LIMITS
        assert (check_altitude(low), check_altitude(high)) == (low, high)
        for z in (beyond(low, 0.0), beyond(high, math.inf), 0.0, math.nan):
            with pytest.raises(ValidationError, match=r"^surface z must lie in "):
                check_altitude(z, "surface z")

    def test_total_energy(self):
        low, high = ENERGY_LIMITS
        for edge, outward in ((low, 0.0), (high, math.inf)):
            users = UserArrays(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([edge / 2, edge / 2]))
            assert float(Scenario(users, DEFAULT_RF, BOUNDS).users.arrays.es.sum()) == edge
            users = users._replace(es=np.array([beyond(edge, outward) / 2] * 2))
            with pytest.raises(ValidationError, match=r"^the users' total energy must lie in "):
                Scenario(users, DEFAULT_RF, BOUNDS)


class TestSaveBytes:
    @pytest.mark.parametrize("make", SAVE_CASES)
    def test_writer_matches_json_dumps(self, tmp_path, make):
        # json.dumps(..., indent=2) lays out the head and tail, and each user
        # column is one line, as json.dumps writes a list of floats
        s = make()
        path = tmp_path / "s.json"
        save(s, path)
        doc = scenario_to_dict(s)
        assert list(doc["users"]) == ["x", "y", "energy"]
        assert all(type(v) is float for col in doc["users"].values() for v in col)
        columns = ",\n".join(f'    "{key}": {json.dumps(col)}' for key, col in doc["users"].items())
        expected = json.dumps({**doc, "users": "USERS"}, indent=2).replace(
            '"USERS"', "{\n" + columns + "\n  }"
        )
        text = path.read_text()
        assert text == expected + "\n"
        assert json.loads(text) == doc
        assert load(path) == s

    @pytest.mark.parametrize("make", SAVE_CASES)
    def test_row_files_are_refused(self, tmp_path, capsys, make):
        # the users as one {"x", "y", "energy"} object each, as earlier
        # versions wrote them: a parse error before any user is read
        doc = scenario_to_dict(make())
        columns = doc["users"]
        doc["users"] = [dict(zip(columns, values)) for values in zip(*columns.values())]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ParseError, match=r"^field 'users' must be an object of x, y and energy arrays$"):
            load(path)
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: field 'users'") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [path]


def write_columns(tmp_path, values, users=None, count=5):
    """A valid `count`-user column file whose users.key[i] entries are
    replaced by the raw JSON texts in `values`, keyed by (key, i), and whose
    whole users object is replaced by the raw text `users` if one is given."""
    doc = scenario_to_dict(generate_uniform(count, BOUNDS, 5, 6, seed=1))
    for key, i in values:
        doc["users"][key][i] = f"RAW-{key}-{i}"
    if users is not None:
        doc["users"] = "RAW-users"
    text = json.dumps(doc)
    for (key, i), raw in values.items():
        text = text.replace(f'"RAW-{key}-{i}"', raw)
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"RAW-users"', users or ""))
    return path


class TestLoadErrors:
    """Two bad values in a column file, at users[1] and users[3]: whatever
    their kinds and columns, the first user's is named."""

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ({("x", 1): "true", ("x", 3): "true"}, ParseError, r"'users\[1\]\.x' must be a number, got True"),
            ({("y", 1): '"far"', ("y", 3): '"far"'}, ParseError, r"'users\[1\]\.y' must be a number, got 'far'"),
            ({("energy", 1): "null", ("energy", 3): "null"}, ParseError,
             r"'users\[1\]\.energy' must be a number, got None"),
            ({("energy", 1): "NaN", ("energy", 3): "NaN"}, ValidationError, r"users\[1\]\.energy must be finite"),
            ({("x", 1): "Infinity", ("x", 3): "Infinity"}, ValidationError, r"users\[1\]\.x must be finite"),
            ({("y", 1): "1" + "0" * 400, ("y", 3): "1" + "0" * 400}, ValidationError,
             r"users\[1\]\.y must be finite"),
            ({("energy", 1): "-3.0", ("energy", 3): "0"}, ValidationError,
             r"users\[1\]\.energy must be positive, got -3\.0"),
            ({("x", 1): "250.5", ("y", 3): "-1"}, ValidationError, r"users\[1\] at \(250\.5, .*\) lies outside"),
            # a value error in an earlier column ahead of a type error in a
            # later one, and a type error in a later column ahead of a value
            # error in an earlier one
            ({("x", 1): "NaN", ("energy", 3): "true"}, ValidationError, r"users\[1\]\.x must be finite"),
            ({("energy", 1): '"far"', ("x", 3): "-Infinity"}, ParseError, r"'users\[1\]\.energy' must be a number"),
            # a user outside the box ahead of a later user's type error, and
            # ahead of a later user's value error
            ({("x", 1): "250.5", ("x", 3): '"far"'}, ValidationError, r"^users\[1\] at \(250\.5, .*\) lies outside"),
            ({("x", 1): "250.5", ("energy", 3): "-1.0"}, ValidationError,
             r"^users\[1\] at \(250\.5, .*\) lies outside"),
        ],
        ids=[
            "true", "string", "null", "nan", "infinity", "int-1e400", "non-positive-energy", "outside-box",
            "value-then-type", "type-then-value", "outside-then-type", "outside-then-value",
        ],
    )
    def test_first_bad_user_is_named(self, tmp_path, values, error, message):
        with pytest.raises(error, match=message) as info:
            load(write_columns(tmp_path, values))
        assert "users[3]" not in str(info.value) and "user 3" not in str(info.value)

    def test_bad_user_is_reported_before_a_bad_rf_field(self, tmp_path):
        path = write_columns(tmp_path, {("energy", 2): "-1.0"}, count=3)
        doc = json.loads(path.read_text())
        del doc["rf"]["noise"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"users\[2\]\.energy must be positive"):
            load(path)

    def test_integer_values_load_as_floats(self, tmp_path):
        # one user's ints among the other users' floats
        s = load(write_columns(tmp_path, {("x", 0): "1", ("y", 0): "2", ("energy", 0): "3"}))
        assert s.users[0] == UserDevice(1.0, 2.0, 3.0) and s.users.arrays.xs.dtype == np.float64


class TestColumnLoadErrors:
    @pytest.mark.parametrize(
        "users, message",
        [
            ('{"x": [1, 2, 3], "energy": [1, 2, 3]}', r"missing field 'users\.y'"),
            ('{"x": [1, 2, 3], "y": 2, "energy": [1, 2, 3]}', r"field 'users\.y' must be an array"),
            ('{"x": [1, 2, 3], "y": {"0": 1}, "energy": [1, 2, 3]}', r"field 'users\.y' must be an array"),
            ('{"x": [1, 2, 3], "y": [1, 2, 3], "energy": [1, 2]}',
             r"user columns must have equal length, got x 3, y 3, energy 2"),
            ('{"x": [], "y": [1], "energy": []}', r"equal length, got x 0, y 1, energy 0"),
            ("7", r"^field 'users' must be an object of x, y and energy arrays$"),
            ('"users"', r"^field 'users' must be an object of x, y and energy arrays$"),
            ("null", r"^field 'users' must be an object of x, y and energy arrays$"),
        ],
        ids=["missing-column", "number-column", "object-column", "short-column", "long-column",
             "users-number", "users-string", "users-null"],
    )
    def test_malformed_columns_are_parse_errors_exit_2(self, tmp_path, capsys, users, message):
        path = write_columns(tmp_path, {}, users=users)
        with pytest.raises(ParseError, match=message):
            load(path)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ({("x", 1): "true"}, ParseError, r"'users\[1\]\.x' must be a number, got True"),
            ({("y", 1): '"far"'}, ParseError, r"'users\[1\]\.y' must be a number, got 'far'"),
            ({("energy", 1): "null"}, ParseError, r"'users\[1\]\.energy' must be a number, got None"),
            ({("x", 1): "[1]"}, ParseError, r"'users\[1\]\.x' must be a number, got \[1\]"),
            ({("energy", 1): "NaN"}, ValidationError, r"users\[1\]\.energy must be finite"),
            ({("x", 1): "Infinity"}, ValidationError, r"users\[1\]\.x must be finite"),
            ({("y", 1): "-Infinity"}, ValidationError, r"users\[1\]\.y must be finite"),
            ({("energy", 1): "1e400"}, ValidationError, r"users\[1\]\.energy must be finite"),
            ({("y", 1): "1" + "0" * 400}, ValidationError, r"users\[1\]\.y must be finite"),
            ({("energy", 1): "-3.0"}, ValidationError, r"users\[1\]\.energy must be positive, got -3\.0"),
            ({("energy", 1): "0"}, ValidationError, r"users\[1\]\.energy must be positive, got 0\.0"),
            ({("x", 1): "250.5"}, ValidationError, r"users\[1\] at \(250\.5, "),
            ({("y", 1): "-1"}, ValidationError, r"users\[1\] at \(.*, -1\.0\) lies outside"),
        ],
        ids=["true", "string", "null", "array", "nan", "infinity", "minus-infinity", "1e400",
             "int-1e400", "negative-energy", "zero-energy", "outside-x", "outside-y"],
    )
    def test_bad_value_names_the_column_and_index(self, tmp_path, capsys, values, error, message):
        path = write_columns(tmp_path, values)
        with pytest.raises(error, match=message):
            load(path)
        assert main(["check", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ({("energy", 1): "-3.0", ("x", 3): '"far"'}, ValidationError,
             r"users\[1\]\.energy must be positive"),
            ({("x", 1): '"far"', ("energy", 3): "NaN"}, ParseError, r"'users\[1\]\.x' must be a number"),
            ({("energy", 1): "NaN", ("x", 3): "1" + "0" * 400}, ValidationError,
             r"users\[1\]\.energy must be finite"),
            ({("energy", 1): "true", ("x", 3): "true"}, ParseError, r"'users\[1\]\.energy'"),
        ],
        ids=["value-then-type", "type-then-value", "value-then-overflow", "later-column-first"],
    )
    def test_first_bad_user_is_named(self, tmp_path, values, error, message):
        with pytest.raises(error, match=message) as info:
            load(write_columns(tmp_path, values))
        assert "users[3]" not in str(info.value)

    def test_integer_values_load_as_floats(self, tmp_path):
        s = load(write_columns(tmp_path, {}, users='{"x": [1, 2, 3], "y": [1, 2, 3], "energy": [1, 2, 3]}'))
        assert s.users[2] == UserDevice(3.0, 3.0, 3.0) and s.users.arrays.es.dtype == np.float64

    def test_no_users_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="at least one user"):
            load(write_columns(tmp_path, {}, users='{"x": [], "y": [], "energy": []}'))
