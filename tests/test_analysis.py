import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import own_rate_profile, symmetric_rel
from sphwrist import (
    CuttingLoad,
    PeakRecord,
    TrajectorySpec,
    force_sweep,
    motor_feasibility,
    reflected_motor_torque,
    sweep_peaks,
    virtual_work_torques,
)
from sphwrist.analysis import (
    SPEED_OK,
    SPEED_OVER_MAX,
    SPEED_OVER_NOMINAL,
    TORQUE_CONTINUOUS_OK,
    TORQUE_INFEASIBLE,
    TORQUE_INTERMITTENT,
)
from sphwrist import analysis, cli, dynamics
from sphwrist.errors import BranchJumpError, InvalidInputError, ModelInconsistencyError, WristError
from sphwrist.kinematics import JointProfile, _unchecked
from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE


def circle_spec(gamma_deg, radius, n=301):
    return TrajectorySpec(kind=KIND_CIRCLE, radius=radius, gamma=math.radians(gamma_deg), sample_count=n)


def own_rate_reference(spec, geometry, bodies, motors, gravity=dynamics.GRAVITY, load=None):
    """The own-rate route that the studies replaced by scaling their path's
    unit-rate pass: a profile stage and a load-free pass at the spec's own
    rate.  Its profile, joint torques and shaft torques (N, 2)."""
    profile, kinematics = own_rate_profile(spec, geometry)
    load_free = dynamics._load_free_torques(profile, kinematics, bodies, gravity)
    tau = load_free.with_load(load_free.tau0, load)
    return profile, tau, tau + analysis._rotor_torques(profile.accels, motors)


def own_rate_record(spec, geometry, bodies, motors, gravity=dynamics.GRAVITY, load=None):
    # The PeakRecord of the own-rate route: shaft torques, and shaft torque times joint rate.
    profile, _, shaft = own_rate_reference(spec, geometry, bodies, motors, gravity, load)
    return PeakRecord(spec.gamma, spec.radius, *(np.max(np.abs(x), axis=0) for x in (
        profile.rates, profile.accels, shaft, shaft * profile.rates[:, :2])))


def peak_record(torques, rates=(1.0, 1.0)):
    return PeakRecord(None, 0.1,
                      np.array([rates[0], rates[1], 1.0, 1.0]),
                      np.zeros(4), np.asarray(torques, dtype=float), np.zeros(2))


def test_sweep_peaks_reference_rates(geometry, bodies, motor):
    rec = sweep_peaks([circle_spec(45.0, 0.25, 1001)], geometry, bodies, motor)[0]
    assert symmetric_rel(rec.max_rates[0], 3.99) < 0.02
    assert symmetric_rel(rec.max_rates[2], 2.83) < 0.02
    assert symmetric_rel(rec.max_accels[0], 13.96) < 0.02
    assert rec.gamma == pytest.approx(math.radians(45.0))
    assert rec.radius == 0.25
    assert np.all(rec.max_torques > 0.0)
    assert np.all(rec.max_powers > 0.0)


def test_sweep_peaks_discretization_stability(geometry, bodies, motor):
    rec1 = sweep_peaks([circle_spec(45.0, 0.25, 1001)], geometry, bodies, motor)[0]
    rec2 = sweep_peaks([circle_spec(45.0, 0.25, 2001)], geometry, bodies, motor)[0]
    for field in ("max_rates", "max_accels", "max_torques", "max_powers"):
        a, b = getattr(rec1, field), getattr(rec2, field)
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) < 1e-3


def test_sweep_peaks_order_and_error_context(geometry, bodies, motor):
    specs = [circle_spec(30.0, 0.25, 51), circle_spec(60.0, 0.1, 51)]
    recs = sweep_peaks(specs, geometry, bodies, motor)
    assert [r.radius for r in recs] == [0.25, 0.1]
    assert recs[1].max_rates[0] > recs[0].max_rates[0]
    # A failing spec is named ahead of the failing sample; the category stays.
    singular = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001)
    with pytest.raises(ModelInconsistencyError) as info:
        sweep_peaks([specs[0], singular], geometry, bodies, motor)
    assert str(info.value).startswith("spec (kind=semicircle-YZ, gamma=None, R=0.25): sample 500 (t = 0.261799 s, v = (")


@pytest.mark.parametrize("study", ["sweep", "force-sweep"])
def test_studies_pass_other_exceptions_through(geometry, bodies, motor, monkeypatch, study):
    # Only WristErrors get the spec prefix; an exception whose constructor
    # takes other arguments propagates as raised.
    raised = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def fail(spec):
        raise raised

    monkeypatch.setattr(analysis, "generate", fail)
    spec = circle_spec(45.0, 0.15, 51)
    with pytest.raises(UnicodeDecodeError) as info:
        if study == "sweep":
            sweep_peaks([spec], geometry, bodies, motor)
        else:
            force_sweep(spec, [0.0], 0.11, geometry, bodies, motor)
    assert info.value is raised


def test_force_sweep_zero_force_matches_no_load(geometry, bodies, motor):
    spec = circle_spec(45.0, 0.15, 101)
    no_load = sweep_peaks([spec], geometry, bodies, motor)[0]
    curve = force_sweep(spec, [0.0], 0.11, geometry, bodies, motor)
    fc, rec = curve[0]
    assert fc == 0.0
    assert np.array_equal(rec.max_torques, no_load.max_torques)
    assert np.array_equal(rec.max_powers, no_load.max_powers)


def test_force_sweep_records_match_one_sweep_per_force(geometry, bodies, motor):
    # The kinematic peaks and rotor torques are taken once per profile; each
    # record still equals a sweep under its own load, bit for bit.
    spec = circle_spec(45.0, 0.15, 101)
    curve = force_sweep(spec, [0.0, 75.0, 150.0], 0.11, geometry, bodies, motor)
    for fc, rec in curve:
        single = sweep_peaks([spec], geometry, bodies, motor, CuttingLoad((fc, fc, fc), 0.11))[0]
        for field in ("max_rates", "max_accels", "max_torques", "max_powers"):
            assert getattr(rec, field).tobytes() == getattr(single, field).tobytes()
    # The shared kinematic peaks are read-only.
    assert curve[0][1].max_rates is curve[1][1].max_rates and not curve[0][1].max_rates.flags.writeable


def test_own_rate_reference_is_virtual_work_plus_reflected_rotor_torque(geometry, bodies, motor):
    # The reference's joint torques are virtual_work_torques and its shaft
    # torques add reflected_motor_torque per actuator, bit for bit, with and
    # without a load, for a motor pair and a gravity of their own.
    spec = circle_spec(45.0, 0.15, 101)
    motors = (motor, replace(motor, rotor_inertia=3e-4, reduction_ratio=2.5))
    gravity = np.array([0.5, -1.0, -9.0])
    for load in (None, CuttingLoad((150.0, -40.0, 75.0), 0.11)):
        profile, tau, shaft = own_rate_reference(spec, geometry, bodies, motors, gravity, load)
        expected = virtual_work_torques(profile, geometry, bodies, gravity, load)
        assert tau.tobytes() == expected.tobytes()
        for i, m in enumerate(motors):
            assert shaft[:, i].tobytes() == reflected_motor_torque(expected[:, i], profile.accels[:, i], m).tobytes()


def test_each_study_runs_one_profile_stage_per_path(geometry, bodies, motor, monkeypatch, tmp_path, capsys):
    # Every study that takes torques makes one profile stage per path, at
    # unit path rate (radius and tool speed 1), and one load-free pass on
    # it: dynamics and force-sweep one, sweep_peaks, sweep and motor-check
    # one per cone angle.  The torques at rest come from that pass
    # (``_LoadFreeTorques.rest``).  Both bindings of the load-free pass
    # are counted, so a second route through virtual_work_torques would show
    # as another pass.
    profiles, passes = [], []
    generate, load_free_torques = analysis.generate, dynamics._load_free_torques

    def counted_path(spec):
        profiles.append((spec.radius, spec.tool_speed))
        return generate(spec)

    def counted_pass(profile, *args):
        passes.append((profile.theta, profile.rates.any()))
        return load_free_torques(profile, *args)

    monkeypatch.setattr(analysis, "generate", counted_path)
    for module in (analysis, dynamics):
        monkeypatch.setattr(module, "_load_free_torques", counted_pass)

    def counts(run):
        # The numbers of profile stages and of load-free passes of one run, which must succeed.
        profiles.clear()
        passes.clear()
        assert run()
        assert all(len(theta) == 51 for theta, _ in passes)
        return len(profiles), len(passes)

    forces = [0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0]
    assert counts(lambda: len(force_sweep(circle_spec(45.0, 0.15, 51), forces, 0.11, geometry, bodies, motor)) == 7) \
        == (1, 1)
    assert profiles == [(1.0, 1.0)]
    specs = [circle_spec(g, r, 51) for g in (30.0, 45.0, 60.0) for r in (0.25, 0.1)]
    assert counts(lambda: len(sweep_peaks(specs, geometry, bodies, motor, CuttingLoad((150.0,) * 3, 0.11))) == 6) \
        == (3, 3)
    assert profiles == [(1.0, 1.0)] * 3
    # Every pass is on a moving profile; none is at rest.
    assert all(moving for _, moving in passes)
    # A pass serves the consecutive specs of its path: ordered by radius,
    # each spec makes its own, and every record keeps its bits.
    by_cone = sweep_peaks(specs, geometry, bodies, motor)
    by_radius = sorted(specs, key=lambda spec: spec.radius)
    assert counts(lambda: len(sweep_peaks(by_radius, geometry, bodies, motor)) == 6) == (6, 6)
    for spec, record in zip(by_radius, sweep_peaks(by_radius, geometry, bodies, motor)):
        twin = by_cone[specs.index(spec)]
        assert all(getattr(record, f).tobytes() == getattr(twin, f).tobytes()
                   for f in ("max_rates", "max_accels", "max_torques", "max_powers"))
    for argv, count in (
        (["dynamics", "--gamma", "45", "--radius", "0.15", "--fc", "150", "--out", str(tmp_path / "d.csv")], (1, 1)),
        (["sweep", "--gamma", "30,45,60", "--radius", "0.25,0.1", "--out", str(tmp_path / "s.csv")], (3, 3)),
        (["motor-check", "--gamma", "30,45,60", "--radius", "0.25,0.1", "--fc", "150"], (3, 3)),
    ):
        assert counts(lambda: cli.main([*argv, "--samples", "51"]) == 0) == count
        assert profiles == [(1.0, 1.0)] * count[0]
    capsys.readouterr()


def _assert_record_matches(record, own, tol=1e-12):
    # A record against the own-rate route's, field by field, to ``tol``
    # relative, and exactly where the own-rate route gives 0.  The torque and
    # power peaks are held to ``tol`` of the larger one: the scaled route's
    # torques are c + k^2 v per sample, whose rounding is on the scale of the
    # largest torque (and the powers' on that of the largest power), as each
    # series is held to its largest magnitude in
    # test_dynamics_and_force_sweep_match_the_own_rate_route.
    assert (record.gamma, record.radius) == (own.gamma, own.radius)
    for field in ("max_rates", "max_accels", "max_torques", "max_powers"):
        got, want = getattr(record, field), getattr(own, field)
        scale = np.max(np.abs(want)) if field in ("max_torques", "max_powers") else np.abs(want)
        assert np.all(np.abs(got - want) <= tol * scale), (record.radius, field, got, want)


def _assert_records_match_their_own_pass(specs, geometry, bodies, motors, load, gravity):
    # Each record of the grouped route against its spec's own-rate route.
    records = sweep_peaks(specs, geometry, bodies, motors, load, gravity)
    assert len(records) == len(specs)
    for spec, record in zip(specs, records):
        _assert_record_matches(record, own_rate_record(spec, geometry, bodies, motors, gravity, load))


@pytest.mark.parametrize("load", [None, CuttingLoad((150.0, 150.0, 150.0), 0.11)])
def test_grouped_sweep_matches_each_specs_own_pass_on_the_paper_grid(config, load):
    specs = [circle_spec(g, r, 1001) for g in (30.0, 45.0, 60.0) for r in (0.25, 0.15, 0.10, 0.05)]
    _assert_records_match_their_own_pass(specs, config.geometry, config.bodies, config.motors, load, config.gravity)


def test_grouped_sweep_scales_from_unit_rate_not_from_a_member(config):
    # At R = 1e300 the accelerations underflow to exactly 0; a shared pass at
    # that spec's rate would scale the second radius from zeros.
    specs = [circle_spec(45.0, 1e300, 11), circle_spec(45.0, 0.1, 11)]
    _assert_records_match_their_own_pass(specs, config.geometry, config.bodies, config.motors, None, config.gravity)
    far, near = sweep_peaks(specs, config.geometry, config.bodies, config.motors, gravity=config.gravity)
    assert not far.max_accels.any() and near.max_accels.all()


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(25.0, 65.0), n=st.integers(3, 3000),
       rates=st.lists(st.tuples(st.floats(0.05, 0.25), st.floats(0.05, 5.0)), min_size=2, max_size=4),
       load=st.none() | st.builds(lambda f, lever: CuttingLoad((f, f, f), lever), st.floats(0.0, 200.0),
                                  st.floats(0.0, 0.2)))
# The smaller torque peak (0.0514 N m) differs by 5.6e-14, 1.1e-12 of itself and 5.7e-14 of the larger (0.9875 N m).
@example(gamma=25.0, n=3, rates=[(0.25, 1.0), (0.0546875, 1.5)], load=CuttingLoad((3.0, 3.0, 3.0), 0.1875))
def test_grouped_sweep_matches_each_specs_own_pass(config, gamma, n, rates, load):
    specs = [TrajectorySpec(KIND_CIRCLE, radius, speed, math.radians(gamma), n) for radius, speed in rates]
    try:
        # A path of few samples may step across a branch; every spec of the path raises then.
        _assert_records_match_their_own_pass(specs, config.geometry, config.bodies, config.motors, load,
                                             config.gravity)
    except BranchJumpError:
        reject()


@settings(max_examples=100, deadline=None)
@given(path=st.tuples(st.just(KIND_CIRCLE), st.floats(25.0, 65.0), st.integers(3, 3000))
       | st.tuples(st.just(KIND_SEMICIRCLE), st.none(), st.integers(2, 1500).map(lambda k: 2 * k)),
       rates=st.lists(st.tuples(st.floats(0.05, 0.25), st.floats(0.05, 5.0)), min_size=2, max_size=4),
       load=st.none() | st.builds(lambda f, lever: CuttingLoad((f, f, f), lever), st.floats(0.0, 200.0),
                                  st.floats(0.0, 0.2)))
# The second torque column (largest |value| 0.0317 N m) differs by 3.7e-14, 1.16e-12 of itself.
@example(path=(KIND_CIRCLE, 26.0, 3), rates=[(0.25, 1.0), (0.203125, 4.0)], load=None)
# The smaller power peak (0.0739 W) differs by 1.1e-13, 1.5e-12 of itself.
@example(path=(KIND_CIRCLE, 26.0, 3), rates=[(0.25, 1.0), (0.25, 4.75)], load=None)
def test_dynamics_and_force_sweep_match_the_own_rate_route(config, path, rates, load):
    # The dynamics series (as cmd_dynamics forms it) and the force-sweep
    # records scale the unit-rate pass of their path.  The reference is the
    # own-rate route they replaced: each series (torques, shaft torques,
    # powers) to 1e-12 of its largest magnitude over both actuators, whose
    # rounding c + k^2 v is on that scale, each record as
    # _assert_record_matches holds it, the
    # times bit for bit, and a failing path with the same error, named at
    # the spec's time.
    # An even-count semicircle passes within half a step of the type-II
    # singularity at its midpoint, where the loop-closure solve amplifies
    # the rounding in which the two routes differ: there they agree to
    # about 1e-7 (at 2,000 to 3,000 samples), so its bound is 1e-6.
    kind, gamma, n = path
    tol = 1e-12 if kind == KIND_CIRCLE else 1e-6
    args = config.geometry, config.bodies, config.motors, config.gravity
    forces, lever = ([0.0], 0.11) if load is None else ([0.0, float(load.f_c[0])], load.lever)
    for radius, speed in rates:
        spec = TrajectorySpec(kind, radius, speed, None if gamma is None else math.radians(gamma), n)
        try:
            profile, tau, shaft = own_rate_reference(spec, *args, load)
        except WristError as exc:
            with pytest.raises(type(exc)) as info:
                analysis.path_pass(spec, *args)
            assert str(info.value) == str(exc)
            reject()  # a path of few samples may step across a branch
        unit = analysis.path_pass(spec, *args)
        assert unit.profile.t.tobytes() == profile.t.tobytes()
        for got, want in zip(unit.series(spec.rate, load), (tau, shaft, tau * profile.rates[:, :2])):
            assert np.all(np.abs(got - want) <= tol * np.max(np.abs(want))), (spec, got, want)
        for fc, record in force_sweep(spec, forces, lever, *args):
            _assert_record_matches(record, own_rate_record(spec, *args, CuttingLoad((fc, fc, fc), lever)), tol)


_SEED0_LOAD = CuttingLoad((150.0, 150.0, 150.0), 0.11)


@settings(max_examples=100, deadline=None)
@given(path=st.tuples(st.just(KIND_CIRCLE), st.floats(25.0, 65.0), st.integers(3, 3000))
       | st.tuples(st.just(KIND_SEMICIRCLE), st.none(), st.integers(2, 1500).map(lambda k: 2 * k)),
       gravity=st.tuples(*[st.floats(-20.0, 20.0)] * 3) | st.tuples(*[st.sampled_from([0.0, -0.0])] * 3),
       load=st.none() | st.builds(lambda f, lever: CuttingLoad((f, f, f), lever), st.floats(0.0, 200.0),
                                  st.floats(0.0, 0.2)))
@example(path=(KIND_CIRCLE, 30.0, 1001), gravity=dynamics.GRAVITY, load=None)
@example(path=(KIND_CIRCLE, 30.0, 1001), gravity=dynamics.GRAVITY, load=_SEED0_LOAD)
@example(path=(KIND_CIRCLE, 45.0, 1001), gravity=dynamics.GRAVITY, load=None)
@example(path=(KIND_CIRCLE, 45.0, 1001), gravity=dynamics.GRAVITY, load=_SEED0_LOAD)
@example(path=(KIND_CIRCLE, 60.0, 1001), gravity=dynamics.GRAVITY, load=None)
@example(path=(KIND_CIRCLE, 60.0, 1001), gravity=dynamics.GRAVITY, load=_SEED0_LOAD)
def test_torques_at_rest_are_the_load_free_pass_at_rest(config, path, gravity, load):
    # The load-free pass gives its static torques (rest) from its own
    # gravity moments.  The reference is the route it replaced: the
    # load-free pass on the same angles at zero-stride zero rates and
    # accelerations.  Equal by tobytes, signed zeros included, and so are
    # the reference's own rest and tau0.
    kind, gamma, n = path
    spec = TrajectorySpec(kind, 1.0, 1.0, None if gamma is None else math.radians(gamma), n)
    try:
        profile, kinematics = own_rate_profile(spec, config.geometry)
    except BranchJumpError:  # a path of few samples may step across a branch
        reject()
    moving = dynamics._load_free_torques(profile, kinematics, config.bodies, gravity)
    zero = np.broadcast_to(0.0, profile.rates.shape)
    at_rest = _unchecked(JointProfile, t=profile.t, theta=profile.theta, rates=zero, accels=zero)
    reference = dynamics._load_free_torques(at_rest, kinematics, config.bodies, gravity)
    assert moving.rest.tobytes() == reference.tau0.tobytes()
    assert reference.rest.tobytes() == reference.tau0.tobytes()
    assert (moving.with_load(moving.rest, load).tobytes()
            == reference.with_load(reference.tau0, load).tobytes())


@pytest.mark.parametrize("study, where", [
    ("sweep", ""),
    ("force-sweep", "Fc = 1e+300 N: "),
])
def test_peak_overflow_names_spec_force_and_sample(geometry, bodies, motor, study, where):
    spec = circle_spec(45.0, 0.1, 101)
    if study == "sweep":
        fast = replace(spec, tool_speed=1e150)
        run, column = lambda: sweep_peaks([spec, fast], geometry, bodies, motor), "P1_W"
    else:
        run, column = lambda: force_sweep(spec, [0.0, 1e300], 1e10, geometry, bodies, motor), "T1_Nm"
    with np.errstate(all="ignore"), pytest.raises(InvalidInputError) as info:
        run()
    assert str(info.value).startswith(f"spec (kind=circle-XY, gamma=45 deg, R=0.1): {where}sample 0 (t = 0 s, v = (")
    assert str(info.value).endswith(f"): {column} is inf; the inputs overflow double precision")


def test_force_sweep_monotone_in_force_and_lever(geometry, bodies, motor):
    spec = circle_spec(45.0, 0.15, 101)
    fc_values = [0.0, 50.0, 100.0, 150.0]
    peaks_by_lever = {}
    for lc in (0.06, 0.11, 0.15):
        curve = force_sweep(spec, fc_values, lc, geometry, bodies, motor)
        peaks = np.array([rec.max_torques for _, rec in curve])
        assert np.all(np.diff(peaks, axis=0) > -1e-12)
        peaks_by_lever[lc] = peaks
    for i, fc in enumerate(fc_values[1:], start=1):
        np.testing.assert_array_less(peaks_by_lever[0.06][i], peaks_by_lever[0.11][i])
        np.testing.assert_array_less(peaks_by_lever[0.11][i], peaks_by_lever[0.15][i])


def test_force_sweep_names_the_failing_sample(geometry, bodies, motor):
    # The load-free pass raises before any load is applied, as one pass per
    # force value did.
    singular = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001)
    with pytest.raises(ModelInconsistencyError) as info:
        force_sweep(singular, [0.0, 50.0], 0.11, geometry, bodies, motor)
    # The tool points along -y there; the other two components are rounding.
    message = re.fullmatch(r"spec \(kind=semicircle-YZ, gamma=None, R=0\.25\): sample 500 \(t = 0\.261799 s,"
                           r" v = \((\S+), -1, (\S+)\)\): the passive joint axes align;"
                           r" ideal joints cannot realize the motion at this sample", str(info.value))
    assert message and all(abs(float(c)) < 1e-15 for c in message.groups())


def test_spec_errors_name_gamma_in_degrees(geometry, bodies, motor):
    # The CLI takes gamma in degrees, so a failing spec names it that way, with the unit.
    spec = circle_spec(89.99999, 0.1, 1001)
    expected = (re.escape("spec (kind=circle-XY, gamma=89.99999 deg, R=0.1): sample 0 (t = 0 s, v = (1, ")
                + r"\S+" + re.escape(", -1.74533e-07)): the passive joint axes align"))
    with pytest.raises(ModelInconsistencyError, match=expected):
        sweep_peaks([circle_spec(45.0, 0.1, 51), spec], geometry, bodies, motor)
    with pytest.raises(ModelInconsistencyError, match=expected):
        force_sweep(spec, [0.0, 50.0], 0.11, geometry, bodies, motor)


def test_force_sweep_rejects_negative_force(geometry, bodies, motor):
    # A NaN or inf force is named as such, ahead of a negative one.
    for forces, rule in (([-5.0], "non-negative"), ([0.0, math.nan], "finite"), ([0.0, math.inf], "finite"),
                         ([-5.0, -math.inf], "finite")):
        with pytest.raises(InvalidInputError, match=f"^cutting-force magnitudes must be {rule}$"):
            force_sweep(circle_spec(45.0, 0.15, 51), forces, 0.1, geometry, bodies, motor)


def test_force_sweep_checks_the_lever_before_the_profile(geometry, bodies, motor, monkeypatch):
    # A bad lever is named on its own, before any profile or torque pass.
    def unreachable(*args):
        raise AssertionError("profile computed before the lever check")

    monkeypatch.setattr(analysis, "generate", unreachable)
    for lever in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="^lever must be non-negative$"):
            force_sweep(circle_spec(45.0, 0.15, 51), [0.0, 25.0], lever, geometry, bodies, motor)


def test_motor_feasibility_reference_worst_case(motor):
    # Worst reference no-load torques stay below the 23 Nm continuous rating.
    report = motor_feasibility(peak_record((12.94, 13.84)), motor)
    assert all(a.torque_class == TORQUE_CONTINUOUS_OK for a in report.actuators)


def test_motor_feasibility_classes(motor):
    assert motor_feasibility(peak_record((30.0, 5.0)), motor).actuators[0].torque_class == TORQUE_INTERMITTENT
    assert motor_feasibility(peak_record((80.0, 5.0)), motor).actuators[0].torque_class == TORQUE_INFEASIBLE


def test_motor_feasibility_exact_thresholds(motor):
    assert motor_feasibility(peak_record((23.0, 23.0)), motor).actuators[0].torque_class == TORQUE_CONTINUOUS_OK
    assert motor_feasibility(peak_record((23.0 + 1e-9, 23.0)), motor).actuators[0].torque_class == TORQUE_INTERMITTENT
    assert motor_feasibility(peak_record((74.0, 74.0)), motor).actuators[0].torque_class == TORQUE_INTERMITTENT
    assert motor_feasibility(peak_record((74.0 + 1e-9, 74.0)), motor).actuators[0].torque_class == TORQUE_INFEASIBLE


def test_motor_feasibility_speed_classes(motor):
    # Nominal 2500 rpm = 261.8 rad/s, max 6500 rpm = 680.7 rad/s at unit ratio.
    assert motor_feasibility(peak_record((1.0, 1.0), rates=(100.0, 100.0)), motor).actuators[0].speed_class == SPEED_OK
    assert motor_feasibility(peak_record((1.0, 1.0), rates=(300.0, 300.0)), motor).actuators[0].speed_class == SPEED_OVER_NOMINAL
    assert motor_feasibility(peak_record((1.0, 1.0), rates=(700.0, 700.0)), motor).actuators[0].speed_class == SPEED_OVER_MAX
    geared = replace(motor, reduction_ratio=3.0)
    assert motor_feasibility(peak_record((1.0, 1.0), rates=(100.0, 100.0)), geared).actuators[0].speed_class == SPEED_OVER_NOMINAL


def test_motor_feasibility_monotone(motor):
    order = {TORQUE_CONTINUOUS_OK: 0, TORQUE_INTERMITTENT: 1, TORQUE_INFEASIBLE: 2}
    previous = -1
    for torque in (1.0, 22.9, 23.1, 50.0, 73.9, 74.1, 200.0):
        rank = order[motor_feasibility(peak_record((torque, torque)), motor).actuators[0].torque_class]
        assert rank >= previous
        previous = rank


def test_motor_feasibility_margins(motor):
    report = motor_feasibility(peak_record((10.0, 40.0)), motor)
    assert report.actuators[0].continuous_margin == pytest.approx(13.0)
    assert report.actuators[1].continuous_margin == pytest.approx(-17.0)


def test_motor_pair_validation(geometry, bodies, motor):
    with pytest.raises(InvalidInputError):
        sweep_peaks([circle_spec(45.0, 0.25, 51)], geometry, bodies, (motor, motor, motor))
    recs = sweep_peaks([circle_spec(45.0, 0.25, 51)], geometry, bodies, (motor, motor))
    assert len(recs) == 1
