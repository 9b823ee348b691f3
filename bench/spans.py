"""Spans recorded from the benchmark's side, around public sphwrist functions.

``traced(tracer)`` replaces each target function, in every ``sphwrist``
module that binds it, by a wrapper that records a span, and restores the
originals on exit.  Spans are ``[name, start, end, parent, error]`` lists kept
in memory; ``parent`` is the index of the enclosing span or -1, and ``error``
is the category of the exception that ended the span, or None.  The program
is single-threaded, so child spans nest inside their parent and never
overlap: self time is span time minus the time of the direct children.
"""

import bisect
import contextlib
import importlib
import itertools
import statistics
import sys
import time

from sphwrist.errors import ModelInconsistencyError

# (module, function, span name).  Each sits at a layer boundary of the
# pipeline: config -> trajectory -> kinematics/rotation -> dynamics ->
# analysis -> cli.  solve_state and solve_trajectory have no metric of their
# own; their spans keep the dynamics loops out of the analysis self time.
TARGETS = (
    ("sphwrist.config", "default_config", "config.load"),
    ("sphwrist.trajectory", "generate", "trajectory.generate"),
    ("sphwrist.kinematics", "inverse_kinematics", "kinematics.ik"),
    ("sphwrist.kinematics", "trajectory_joint_profiles", "kinematics.profiles"),
    ("sphwrist.rotation", "chain_frames", "rotation.chain_frames"),
    ("sphwrist.rotation", "central_difference", "rotation.central_difference"),
    ("sphwrist.dynamics", "body_motion", "dynamics.body_motion"),
    ("sphwrist.dynamics", "assemble_system", "dynamics.assemble"),
    ("sphwrist.dynamics", "solve_wrenches", "dynamics.solve"),
    ("sphwrist.dynamics", "solve_state", "dynamics.solve_state"),
    ("sphwrist.dynamics", "solve_trajectory", "dynamics.solve_trajectory"),
    ("sphwrist.dynamics", "power_balance_residual", "dynamics.power_balance"),
    ("sphwrist.analysis", "sweep_peaks", "analysis.sweep_peaks"),
    ("sphwrist.analysis", "force_sweep", "analysis.force_sweep"),
    ("sphwrist.cli", "write_csv", "cli.write_csv"),
    ("sphwrist.cli", "main", "cli.main"),
)

GATE_REJECTION = ModelInconsistencyError.category


class Tracer:
    """In-memory span store for one study."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = getattr(exc, "category", type(exc).__name__)
                raise
            finally:
                span[2] = clock()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Route every binding of each target function through ``tracer``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sphwrist" or name.startswith("sphwrist."))]
    patched = []
    try:
        for module_name, attr, span_name in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def durations(spans, pauses=()):
    """Per-span duration, less the ``(end time, seconds)`` pauses that ended inside the span.

    A pause is time the benchmark's speed sampler (``speed.py``) spent in a
    signal handler.  It runs between two bytecodes, so it lies wholly inside
    the innermost open span and all of that span's ancestors.
    """
    ends = [t for t, _ in pauses]
    paused = [0.0, *itertools.accumulate(seconds for _, seconds in pauses)]
    return [end - start - (paused[bisect.bisect_right(ends, end)] - paused[bisect.bisect_left(ends, start)])
            for _, start, end, _, _ in spans]


def self_times(spans, pauses=()):
    """Per-span duration minus the durations of its direct children (pauses removed from both)."""
    total = durations(spans, pauses)
    own = list(total)
    for span, duration in zip(spans, total):
        if span[3] >= 0:
            own[span[3]] -= duration
    return own


def layer_metrics(spans, samples: int, csv_bytes: int, scale: float = 1.0, pauses=()) -> dict:
    """Per-layer values of one study; ``samples`` is its output-sample count.

    The sampler's ``pauses`` are removed from every span, and what is left
    is multiplied by ``scale``, the study's speed factor (see ``speed.py``).
    """
    own = self_times(spans, pauses)
    total, self_total, count = {}, {}, {}
    for span, duration, self_time in zip(spans, durations(spans, pauses), own):
        name = span[0]
        total[name] = total.get(name, 0.0) + scale * duration
        self_total[name] = self_total.get(name, 0.0) + scale * self_time
        count[name] = count.get(name, 0) + 1
    rejections = sum(1 for s in spans if s[0] == "dynamics.solve" and s[4] == GATE_REJECTION)
    solves = count.get("dynamics.solve", 0)

    def us_per_sample(seconds):
        return 1e6 * seconds / samples

    loads = count.get("config.load", 0)
    return {
        "config.load_ms": 1e3 * total.get("config.load", 0.0) / loads if loads else 0.0,
        "trajectory.generate_us_per_sample": us_per_sample(total.get("trajectory.generate", 0.0)),
        "kinematics.ik_us_per_sample": us_per_sample(total.get("kinematics.ik", 0.0)),
        "kinematics.profiles_self_us_per_sample": us_per_sample(self_total.get("kinematics.profiles", 0.0)),
        "kinematics.ik_calls": count.get("kinematics.ik", 0),
        "rotation.chain_frames_calls": count.get("rotation.chain_frames", 0),
        "rotation.chain_frames_us_per_sample": us_per_sample(total.get("rotation.chain_frames", 0.0)),
        "rotation.central_difference_us_per_sample": us_per_sample(total.get("rotation.central_difference", 0.0)),
        "dynamics.body_motion_us_per_sample": us_per_sample(total.get("dynamics.body_motion", 0.0)),
        "dynamics.assemble_us_per_sample": us_per_sample(total.get("dynamics.assemble", 0.0)),
        "dynamics.solve_us_per_sample": us_per_sample(total.get("dynamics.solve", 0.0)),
        "dynamics.ne_solves": solves,
        "dynamics.power_balance_us_per_sample": us_per_sample(total.get("dynamics.power_balance", 0.0)),
        "dynamics.gate_rejections": rejections,
        "dynamics.solve_accept_ratio": (solves - rejections) / solves if solves else 0.0,
        "analysis.self_us_per_sample": us_per_sample(
            sum(t for name, t in self_total.items() if name.startswith("analysis."))),
        "cli.write_csv_ms": 1e3 * total.get("cli.write_csv", 0.0),
        "cli.csv_bytes": csv_bytes,
        "cli.self_ms": 1e3 * self_total.get("cli.main", 0.0),
    }


def median_metrics(per_study):
    """Median of each metric over the studies of one run."""
    return {key: statistics.median(m[key] for m in per_study) for key in per_study[0]}
