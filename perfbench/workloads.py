"""Seeded inputs for the benchmark workloads.

Every input is produced here from the workload seed with the standard
library alone: no saddlebvp code runs to make an input, so a change to the
library cannot change what it is measured on.  Each workload instance is a
set of JSON files plus the CLI argument lists that run on them, together
with the integrand as a plain numpy function so that outputs can be checked
without the library's derivative trees.
"""

import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One unit of work: input files, CLI commands, and the integrand for checks."""

    files: dict          # file name -> JSON-serialisable object
    commands: list       # argument lists for ``saddlebvp.cli.main``
    field: object        # F(k, x, y, u) on numpy arrays
    u: np.ndarray        # parameter values at the nodes 1..T
    T: int
    cli_seed: int


def _rng(workload, seed, index):
    # String seeding hashes the whole text, so (workload, seed, index) map to
    # independent, platform-stable streams.
    return random.Random(f"{workload}:{seed}:{index}")


def _newton_scale(rng, cli_seed):
    T = 800
    u = [rng.uniform(-0.5, 0.5) for _ in range(T)]
    problem = {"T": T, "D": 1.0, "F": "x*y + exp(x) - exp(y) + u*(x - y)", "u": u}
    commands = [["solve", "problem.json", "--method", "newton", "--multistart", "4",
                 "--seed", str(cli_seed), "--out", "newton"]]
    field = lambda k, x, y, u: x * y + np.exp(x) - np.exp(y) + u * (x - y)
    return problem, commands, field, np.array(u)


def _eg_stiff(rng, cli_seed):
    # The demos/problems/exp_t5.json problem with the exponentials' rate cut
    # to 0.35, at the CLI's default tolerance and iteration cap.  The step is
    # still 0.9 over a Lipschitz estimate that the exponentials raise, but
    # every start converges in a few hundred iterations and verifies; at full
    # rate most starts hit the iteration cap.
    problem = {"T": 5, "D": 1, "F": "x*y + exp(0.35*x) - exp(0.35*y) + u*(x - y)", "u": "0.5"}
    commands = [["solve", "problem.json", "--method", "extragradient", "--multistart", "16",
                 "--seed", str(cli_seed), "--out", "eg"]]
    field = lambda k, x, y, u: x * y + np.exp(0.35 * x) - np.exp(0.35 * y) + u * (x - y)
    return problem, commands, field, np.full(5, 0.5)


def _study(rng, cli_seed):
    T, D = 100, 1.0
    a, b, p, q = 0.4, 0.4, 0.25, 0.25
    u = [rng.uniform(-0.5, 0.5) for _ in range(T)]
    # F = a x^2 - b y^2 + 0.2 x y + p sin(x) + q cos(y) + u (x - y).  With the
    # other slot anchored at 0, F(x, 0) >= a x^2 - (|p| + D)|x| - |q| and
    # F(0, y) <= -b y^2 + D|y| + |q|, which gives the gammas in closed form.
    certificate = {
        "alpha1": 0.0, "beta1": 0.0, "gamma1": -(abs(p) + D) ** 2 / (4 * a) - abs(q),
        "alpha2": 0.0, "beta2": 0.0, "gamma2": D ** 2 / (4 * b) + abs(q),
        "box": 6.0, "anchor_y": [0.0] * T, "anchor_x": [0.0] * T,
    }
    problem = {
        "T": T, "D": D,
        "F": f"{a}*x^2 - {b}*y^2 + 0.2*x*y + {p}*sin(x) + {q}*cos(y) + u*(x - y)",
        "u": u,
        "certificate": certificate,
        "sequence": {"direction": "0.5*cos(k)", "N": 64},
    }
    s = str(cli_seed)
    commands = [
        ["check", "problem.json", "--samples", "256", "--seed", s, "--out", "study"],
        ["solve", "problem.json", "--method", "newton", "--multistart", "32", "--seed", s,
         "--out", "study-newton"],
        ["solve", "problem.json", "--method", "nested", "--multistart", "1", "--max-iter", "10",
         "--tol", "1e-8", "--seed", s, "--out", "study-nested"],
        ["sweep", "problem.json", "--method", "newton", "--multistart", "16", "--seed", s,
         "--out", "study"],
    ]
    field = lambda k, x, y, u: (a * x ** 2 - b * y ** 2 + 0.2 * x * y + p * np.sin(x)
                                + q * np.cos(y) + u * (x - y))
    return problem, commands, field, np.array(u)


_GENERATORS = {"newton-scale": _newton_scale, "eg-stiff": _eg_stiff, "study": _study}


def make_instance(workload, seed, index):
    """Instance ``index`` of a run with workload seed ``seed``; pure function of its arguments."""
    rng = _rng(workload, seed, index)
    cli_seed = rng.randrange(2 ** 31)
    problem, commands, field, u = _GENERATORS[workload](rng, cli_seed)
    return Instance(files={"problem.json": problem}, commands=commands, field=field,
                    u=u, T=problem["T"], cli_seed=cli_seed)
