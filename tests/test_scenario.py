import json
import math

import pytest

from uavlift.errors import ParseError, ValidationError
from uavlift.scenario import (
    AreaBounds,
    ClusterSpec,
    RfParams,
    Scenario,
    UserDevice,
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
        tiny = AreaBounds(0, 1e-9, 0, 1e-9, 1, 1)
        s = generate_uniform(1, tiny, 5, 5, seed=123)
        u = s.users[0]
        assert 0 <= u.x <= 1e-9 and 0 <= u.y <= 1e-9
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
        doc["users"][1]["energy"] = -3.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load(path)

    def test_missing_rf_noise_names_the_field(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(2, BOUNDS, 5, 6, seed=1))
        del doc["rf"]["noise"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="rf.noise"):
            load(path)

    def test_missing_user_coordinate_names_the_field(self, tmp_path):
        doc = scenario_to_dict(generate_uniform(5, BOUNDS, 5, 6, seed=1))
        del doc["users"][3]["y"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"users\[3\].y"):
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
        doc["users"][1]["energy"] = "NUMBER"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"NUMBER"', literal))
        with pytest.raises(ValidationError, match=r"users\[1\].energy"):
            load(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)
