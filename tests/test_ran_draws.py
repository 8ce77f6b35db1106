"""The bare scalar draws of the simulator's step path equal numpy's.

``LinkAdapter.step``, ``Scheduler`` and ``CellLoadProcess``,
``DrivingRoute`` and ``RandomWalk`` draw their scalar random numbers
through numpy's bare generators, which skip the argument parsing of
``normal`` and ``uniform``:

* ``rng.normal(0.0, sigma)`` as ``sigma * rng.standard_normal()``;
* ``rng.normal()`` as ``rng.standard_normal()``;
* ``rng.uniform(a, b)`` as ``a + (b - a) * rng.random()``.

numpy computes ``normal`` as ``loc + scale * standard_normal`` and
``uniform`` as ``low + (high - low) * random``, from the same bit
generator, so each pair gives the same value and leaves the stream at
the same place.  This file pins that for every scale and range the step
path uses: a numpy release that changed either formula fails here, by
name, instead of as a moved trace fingerprint.
"""

import math

import numpy as np

from repro.ran import LinkAdapter
from repro.ran.mobility import IndoorWalk, RandomWalk

#: pairs drawn per identity
N_PAIRS = 10_000

#: sampling periods traces are synthesized at (the heading noise scales with them)
DT_S = (1.0, 0.1, 0.01)

#: every sigma of an ``rng.normal(0.0, sigma)`` drawn bare: the link's CQI
#: report noise, then the walking and indoor heading noise per period
SIGMAS = (LinkAdapter().report_noise,) + tuple(
    walk.heading_sigma * math.sqrt(dt_s) for walk in (RandomWalk(), IndoorWalk()) for dt_s in DT_S
)

#: every (a, b) of an ``rng.uniform(a, b)`` drawn bare: a cell's mean-load
#: spread and the RB-share jitter (Scheduler), the stop length and the
#: cruise-speed spread (DrivingRoute)
RANGES = ((0.7, 1.3), (0.96, 1.0), (0.5, 1.5), (0.8, 1.15))


def test_bare_draws_equal_numpys_and_keep_the_stream_aligned():
    bare, parsed = np.random.default_rng(2024), np.random.default_rng(2024)
    for _ in range(N_PAIRS):
        for sigma in SIGMAS:
            got, want = sigma * bare.standard_normal(), parsed.normal(0.0, sigma)
            assert got == want, f"sigma * standard_normal() != normal(0.0, sigma) at sigma={sigma!r}: {got!r} != {want!r}"
        got, want = bare.standard_normal(), parsed.normal()
        assert got == want, f"standard_normal() != normal(): {got!r} != {want!r}"
        for a, b in RANGES:
            got, want = a + (b - a) * bare.random(), parsed.uniform(a, b)
            assert got == want, f"a + (b - a) * random() != uniform(a, b) at ({a!r}, {b!r}): {got!r} != {want!r}"
        # RandomWalk's start heading, rng.uniform(0, 2 * math.pi)
        got, want = 2 * math.pi * bare.random(), parsed.uniform(0, 2 * math.pi)
        assert got == want, f"2 * pi * random() != uniform(0, 2 * pi): {got!r} != {want!r}"
    assert bare.bit_generator.state == parsed.bit_generator.state, "the two streams drifted apart"
    assert bare.random() == parsed.random()
