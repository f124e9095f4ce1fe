"""The benchmark's workloads, each a list of configs shaped like shipped ones.

The texts live here rather than being read from ``configs/`` so that a change
to a shipped config cannot silently change what the benchmark measures.  Record
counts are sized so that one pass over a workload takes a few seconds; every
other key matches the shipped config named in each entry unless a comment
says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """One config of a workload and the outcome counts its records must have.

    ``expect`` maps an outcome (``error:<code>`` for error records) to its
    record count.

    ``default_seed`` is the shipped config's ``check.seed``; it is None for
    configs that draw nothing at random, which do the same work at every seed.
    """

    name: str
    body: str
    default_seed: int | None
    expect: dict

    def text(self, seed: int | None = None) -> str:
        """The config text, with ``seed`` (or the default) as check.seed."""
        if self.default_seed is None:
            return self.body
        use = self.default_seed if seed is None else seed
        return f"{self.body}check.seed = {use}\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple


_SFT_FULL = "system.kind = sft\nsystem.transition = 11;11\n"
_SFT_GOLDEN = "system.kind = sft\nsystem.transition = 11;10\n"
_CAT = "system.kind = toral\nsystem.matrix = 2 1 ; 1 1\n"

TORAL_LONG = Workload(
    "toral-long",
    "c2_cat shape: 1000-step exact cat-map orbits at delta 1e-6; scalars, "
    "perturbed_orbit, the lattice shadow lane and the replay tracer walk",
    (Config("c2_cat", _CAT + """\
check.kind = check-shadowing
check.delta = 1e-6
check.epsilonFactor = 1001/1000
check.count = 2
check.length = 1000
""", 202, {"pass": 2}),))

SHIFT_RANDOM = Workload(
    "shift-random",
    "c1 shape: random shift orbits up to 64 symbols at eps 1/4 and 1/16; "
    "symbolic points, shift perturbation and shadow_sft, no field arithmetic",
    (Config("c1_full_shift", _SFT_FULL + """\
check.kind = check-shadowing
check.epsilons = 1/4 1/16
check.count = 25
check.maxLength = 64
""", 101, {"pass": 50}),
     Config("c1_golden_mean", _SFT_GOLDEN + """\
check.kind = check-shadowing
check.epsilons = 1/4 1/16
check.count = 25
check.maxLength = 64
""", 102, {"pass": 50})))

# epsilon is 1/10 instead of the shipped 1/20: at 1/20 the cover and strand
# sweep alone take about 13 s, too long to repeat within one run.  Not listed
# in BENCHMARK.json: with passes this long a run holds five or so, and the
# median replay latency of so few random segment families spread by up to 21%
# between seeds.  It stays runnable by name for work on the strand sweep.
SPEC_CAT = Workload(
    "spec-cat",
    "c4_spec_cat shape: cover build, toral strand sweep and short "
    "specification points; construction costs far more than replay",
    (Config("c4_spec_cat", _CAT + """\
check.kind = spec
check.epsilon = 1/10
check.count = 36
check.maxSegments = 4
check.maxLength = 16
check.levels = 1 2
""", 405, {"pass": 36}),))

SMALL_CHECKS = Workload(
    "small-checks",
    "every other shipped config once: barycenter, periodic points, "
    "falsification, 2048 exhaustive records through codecs and reporting",
    # length 2 instead of 3: 2048 records rather than 8192, so that a pass
    # takes about 3 s and a run makes several.
    (Config("c3_exhaustive", _SFT_FULL + """\
check.kind = check-shadowing
check.mode = exhaustive
check.width = 9
check.length = 2
check.delta = 1/16
check.epsilon = 1/8
""", None, {"pass": 2048}),
     Config("c4_spec_shift", _SFT_FULL + """\
check.kind = spec
check.epsilon = 1/8
check.count = 30
check.maxSegments = 4
check.maxLength = 16
check.levels = 1 2
""", 404, {"pass": 30}),
     Config("c5_cat_fixed", _CAT + """\
check.kind = barycenter
check.p = 0,0
check.q = 0,0
check.epsilons = 1/10 1/20
check.n1 = 50
check.n2 = 50
""", None, {"pass": 2}),
     Config("c5_cat_mixed", _CAT + """\
check.kind = barycenter
check.p = 0,0
check.q = 1/5,2/5
check.epsilons = 1/10 1/20
check.n1 = 50
check.n2 = 50
""", None, {"pass": 2}),
     Config("c5_shift", _SFT_FULL + """\
check.kind = barycenter
check.p = 0~-~0@0
check.q = 1~-~1@0
check.epsilon = 1/8
check.n1 = 50
check.n2 = 50
""", None, {"pass": 1}),
     # maxDepth 10 instead of 30 in the three heteroclinic configs.
     Config("c6_cat_fixed", _CAT + """\
check.kind = heteroclinic
check.p = 0,0
check.q = 0,0
check.epsilons = 1/10 1/20
check.n1 = 50
check.n2 = 50
check.maxDepth = 10
""", None, {"pass": 20}),
     Config("c6_cat_mixed", _CAT + """\
check.kind = heteroclinic
check.p = 0,0
check.q = 1/5,2/5
check.epsilons = 1/10 1/20
check.n1 = 50
check.n2 = 50
check.maxDepth = 10
""", None, {"pass": 20}),
     Config("c6_shift", _SFT_FULL + """\
check.kind = heteroclinic
check.p = 0~-~0@0
check.q = 1~-~1@0
check.epsilon = 1/8
check.n1 = 50
check.n2 = 50
check.maxDepth = 10
""", None, {"pass": 10}),
     # maxPeriod 5 instead of 6.
     Config("c7_periodic", _CAT + """\
check.kind = periodic-points
check.maxPeriod = 5
""", None, {"pass": 5}),
     # A reducible shift has no specification: one expected error record.
     Config("c8_reducible", """\
system.kind = sft
system.transition = 10;01
check.kind = spec
check.epsilon = 1/8
check.count = 1
""", None, {"error:not-transitive": 1}),
     # horizon 500 instead of 1000.
     Config("c8_rotation", """\
system.kind = rotation
system.angle = 377/610
check.kind = falsify-shadowing
check.epsilon = 1/10
check.delta = 1/1000
check.horizon = 500
""", 808, {"pass": 1})))

WORKLOADS = {w.name: w for w in (TORAL_LONG, SHIFT_RANDOM, SPEC_CAT,
                                  SMALL_CHECKS)}
