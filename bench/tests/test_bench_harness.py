"""Tests for the benchmark's own code: spans, seeds and the correctness gate."""

import math
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import sphwrist  # noqa: E402
from sphwrist import kinematics  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_sampler_pauses_leave_the_spans_they_ended_in():
    recorded = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    pauses = [(2.5, 0.25), (4.5, 0.5), (8.0, 1.0)]  # (end time, seconds)
    assert spans.durations(recorded, pauses) == [8.25, 2.75, 0.75, 3.0]
    # Each pause comes off the innermost span only, so self times still add up to the net root.
    assert spans.self_times(recorded, pauses) == [2.5, 2.0, 0.75, 3.0]


def test_tracer_records_nesting_and_error_category():
    tracer = spans.Tracer()

    def fail():
        raise sphwrist.errors.ModelInconsistencyError("gate")

    inner = tracer.wrap("inner", lambda: None)
    failing = tracer.wrap("failing", fail)

    def body():
        inner()
        with pytest.raises(sphwrist.WristError):
            failing()

    tracer.wrap("outer", body)()
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, None), ("failing", 0, "model-inconsistency")]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_traced_patches_every_binding_and_restores_it():
    original = sphwrist.rotation.chain_frames
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert kinematics.chain_frames is not original
        assert sphwrist.chain_frames is kinematics.chain_frames
        sphwrist.forward_kinematics(0.1, 0.2, sphwrist.WristGeometry())
    assert kinematics.chain_frames is original and sphwrist.chain_frames is original
    assert [s[0] for s in tracer.spans] == ["rotation.chain_frames"]


def test_layer_metrics_counts_gate_rejections():
    recorded = [
        ["dynamics.solve", 0.0, 1.0, -1, None],
        ["dynamics.solve", 1.0, 2.0, -1, "model-inconsistency"],
        ["kinematics.ik", 2.0, 2.5, -1, None],
    ]
    metrics = spans.layer_metrics(recorded, samples=2, csv_bytes=0)
    assert metrics["dynamics.ne_solves"] == 2
    assert metrics["dynamics.gate_rejections"] == 1
    assert metrics["dynamics.solve_accept_ratio"] == 0.5
    assert metrics["kinematics.ik_us_per_sample"] == pytest.approx(0.25e6)


def test_calibration_removes_sampling_time_and_scales_by_speed():
    sampler = speed.SpeedSampler()
    slow = 2.0 * speed.REFERENCE_S_PER_ITERATION * speed.SAMPLE_ITERATIONS  # machine at half speed
    sampler.samples = [(1.0, slow), (2.0, slow)]
    assert sampler.calibrated(0.5, 2.5) == pytest.approx((2.0 - 2 * slow) / 2.0)
    # An interval without samples uses the latest ones.
    assert sampler.calibrated(3.0, 3.1) == pytest.approx(0.1 / 2.0)


def test_sampler_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        speed.kernel_seconds(2000)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 1


def test_same_seed_gives_same_inputs_and_argv(tmp_path):
    assert workloads.inputs_for_seed(0) == workloads.PAPER_INPUTS
    first, again, other = (workloads.inputs_for_seed(s) for s in (7, 7, 8))
    assert first == again and first != other
    for workload in ("peak-grid", "profile-grid", "force-sweep"):
        assert (workloads.cli_calls(workload, first, tmp_path)
                == workloads.cli_calls(workload, again, tmp_path))
    assert all(25.0 <= g <= 65.0 for g in (*first.gammas, first.force_gamma))
    assert all(0.05 <= r <= 0.25 for r in (*first.radii, first.force_radius, first.semicircle_radius))
    assert len(first.forces) == 7 and all(0.0 <= f <= 200.0 for f in first.forces)


def _small_profile_study(tmp_path, inputs, samples):
    calls = workloads.cli_calls("profile-grid", inputs, tmp_path, samples)
    output = workloads.run_cli_study(calls)
    assert output.exit_codes == [0] * len(calls)
    return output


def test_gate_rejects_a_perturbed_profile(tmp_path):
    inputs = workloads.Inputs((40.0,), (0.1, 0.2), 45.0, 0.15, (0.0,), 0.2)
    output = _small_profile_study(tmp_path, inputs, 51)
    assert checks.check_study("profile-grid", output, inputs, 1, 51) == []

    path = output.csv_paths[1]
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[1] = repr(float(row[1]) + 1e-6)  # theta1 of the first sample
    path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    problems = checks.check_study("profile-grid", output, inputs, 1, 51)
    assert any("forward kinematics" in p for p in problems)

    path.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in checks.check_study("profile-grid", output, inputs, 1, 51))


def test_gate_rejects_a_wrong_semicircle_rejection_or_balance():
    inputs = workloads.Inputs((40.0,), (0.1,), 45.0, 0.15, (0.0,), 0.2)
    output = workloads.run_semicircle_study(inputs.semicircle_radius, samples=21)
    assert output.failed == 1
    assert checks.check_study("semicircle-verify", output, inputs, 1, 21) == []

    output.semicircle["rejected"] = [(9, "model-inconsistency")]
    assert checks.check_study("semicircle-verify", output, inputs, 1, 21)
    output.semicircle["rejected"] = [(10, "model-inconsistency")]
    output.semicircle["balance"][3] = 1e-3
    assert checks.check_study("semicircle-verify", output, inputs, 1, 21)


def test_gate_rejects_values_off_the_seed0_reference(tmp_path):
    recorded = np.array(checks.load_reference()["force-sweep"])
    forces = np.array(workloads.PAPER_INPUTS.forces)[:, None]
    path = tmp_path / "force_sweep.csv"

    def write(values):
        sphwrist.cli.write_csv(path, ["Fc_N", "T1_Nm", "T2_Nm", "P1_W", "P2_W"], np.hstack([forces, values]))

    write(recorded)
    assert checks.check_force_sweep(path, workloads.PAPER_INPUTS, 0) == []
    perturbed = recorded.copy()
    perturbed[3, 1] *= 1.0 + 1e-7
    write(perturbed)
    assert any("recorded" in p for p in checks.check_force_sweep(path, workloads.PAPER_INPUTS, 0))
    assert checks.check_force_sweep(path, workloads.PAPER_INPUTS, 1) == []

    bent = recorded.copy()
    bent[3] += 0.5 * math.fabs(bent[3, 0])
    write(bent)
    assert any("convex" in p for p in checks.check_force_sweep(path, workloads.PAPER_INPUTS, 1))
