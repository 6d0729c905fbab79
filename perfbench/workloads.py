"""The four benchmark workloads, each driving ucont through its public API.

A workload has three parts:

``setup(seed, workdir)``
    builds the inputs (fields, grids, configs) from the seed; timed as part
    of ``setup_s`` together with ``import ucont``.
``operations(inputs)``
    named program calls, run in order inside the timed span; each receives
    the results so far.
``checks(inputs)``
    named checks, each listing the operations it needs and comparing their
    results against an oracle from ``checks.py``.  Every check counts as one
    attempted operation; it fails when an operation it needs raised.

Program functions are always looked up as module attributes at call time
(``carleman.make_test_function``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import numpy as np
import sympy as sp

from ucont import carleman, coefficients, evolution, experiments, grids, \
    operators
from ucont.expressions import X_SYMBOLS, T_SYMBOL, const, parse_expression

import checks as C

PLATEAU = 3.0
KNOTS = (0.125, 0.25, 0.75, 0.875)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# frontier: admissibility frontier of both weights, with the exponent fit
# ---------------------------------------------------------------------------

class Frontier:
    name = "frontier"
    CUBIC_R = (2.0, 4.0)
    TRANSLATED_R = (1.1, 2.2)
    TRANSLATED_C0 = 4.0
    ORACLE_BETAS = (0.5, 5.0, 40.0)
    # the frontier sweeps, and the number of beta* they report
    FRONTIER_OPS = ("cubic_frontier", "translated_frontier")
    FRONTIER_POINTS = len(CUBIC_R) + len(TRANSLATED_R)

    def setup(self, seed, workdir):
        cubic = carleman.SweepConfig(
            mode="annulus", nt=64, extents=(8.0,), points=(512,),
            R_values=(1.0,), n_samples=1, seed0=seed,
            frontier_R_values=self.CUBIC_R, frontier_probes=1)
        # at nt = 128 the probes' time tail exceeds make_test_function's
        # budget for some seeds (see CHANGES.md); nt = 256 keeps 4x margin.
        # The first probe's carrier is 11.25 R and must stay below
        # 0.45 k_nyquist - 5, so R <= 2.23 at 256 points.
        translated = carleman.SweepConfig(
            mode="translated", nt=256, extents=(6.0,), points=(256,),
            R_values=(1.0,), n_samples=1, seed0=seed,
            c0=self.TRANSLATED_C0,
            frontier_R_values=self.TRANSLATED_R, frontier_probes=1)
        # the closed form is a continuum identity; its discrete error falls
        # from 1.6e-6 at 512 points to 1.6e-9 at 2048 (see README)
        st = grids.SpaceTimeGrid(64, grids.Grid((8.0,), (2048,)))
        betas = self.ORACLE_BETAS
        return {"cubic": cubic, "translated": translated, "st": st,
                "identity": coefficients.CoefficientField.identity(1),
                "oracle_cases": ((betas[seed % 3], 1.0),
                                 (betas[(seed + 1) % 3], 2.8)),
                "oracle_seed": 5000 + seed}

    def operations(self, inp):
        ops = [("cubic_frontier",
                lambda res: carleman.carleman_sweep(inp["cubic"])),
               ("translated_frontier",
                lambda res: carleman.carleman_sweep(inp["translated"]))]
        for i, (beta, R) in enumerate(inp["oracle_cases"]):
            def comm(res, beta=beta, R=R, i=i):
                cut = carleman.CutoffSpec(r0=1.0, R=R)
                f = carleman.make_test_function(
                    "annulus", inp["st"], cut, inp["oracle_seed"] + i)
                rep = carleman.carleman_sides_cubic(f, inp["identity"], beta,
                                                    cut)
                return f.values, rep.comm_form
            ops.append((f"comm[beta={beta},R={R}]", comm))
        return ops

    def checks(self, inp):
        def exponent(op, target):
            def run(res):
                rep = res[op]
                return C.check_exponent(rep.frontier_R, rep.frontier_beta,
                                        rep.frontier_exponent, target)
            return run

        def order(res):
            return C.check_exponent_order(
                C.fit_exponent(self.TRANSLATED_R,
                               res["translated_frontier"].frontier_beta),
                C.fit_exponent(self.CUBIC_R,
                               res["cubic_frontier"].frontier_beta))

        def bracket_cubic(res):
            refs = [C.cubic_reference_beta(R, 1.0, 1.0, PLATEAU, KNOTS)
                    for R in self.CUBIC_R]
            return C.check_bracket(res["cubic_frontier"].frontier_beta, refs)

        def bracket_translated(res):
            refs = [self.TRANSLATED_C0 * R ** 2 for R in self.TRANSLATED_R]
            return C.check_bracket(res["translated_frontier"].frontier_beta,
                                   refs)

        out = [("cubic_exponent", ("cubic_frontier",),
                exponent("cubic_frontier", 3.0)),
               ("translated_exponent", ("translated_frontier",),
                exponent("translated_frontier", 2.0)),
               ("exponent_order", ("cubic_frontier", "translated_frontier"),
                order),
               ("cubic_bracket", ("cubic_frontier",), bracket_cubic),
               ("translated_bracket", ("translated_frontier",),
                bracket_translated)]
        L = inp["st"].space.extents[0]
        for beta, R in inp["oracle_cases"]:
            op = f"comm[beta={beta},R={R}]"

            def comm(res, op=op, beta=beta, R=R):
                values, program = res[op]
                own = C.commutator_form_identity(values, L, R, beta, PLATEAU,
                                                 KNOTS)
                return C.check_commutator(own, program)
            out.append((op, (op,), comm))
        return out


# ---------------------------------------------------------------------------
# samples: the inequalities at their threshold beta over many test functions
# ---------------------------------------------------------------------------

class Samples:
    name = "samples"
    FRONTIER_OPS, FRONTIER_POINTS = (), 0
    TRANSLATED_R = (1.0, 1.5)
    C0 = 4.0
    CUBIC_PER_FIELD = 5

    def setup(self, seed, workdir):
        pe = parse_expression
        block = coefficients.TransversalField(
            2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),))
        fields = {"identity": coefficients.CoefficientField.identity(1),
                  "mild": coefficients.CoefficientField(
                      1, ((pe("1 + 0.06*exp(-x1^2/4)"),),))}
        return {
            "block": block,
            "st2": grids.SpaceTimeGrid(128, grids.Grid((8.0, 4.0), (128, 64))),
            "cut2": carleman.CutoffSpec(r0=1.0, R=self.TRANSLATED_R[seed % 2],
                                        space_width=1.0),
            "fields": fields,
            "st1": grids.SpaceTimeGrid(64, grids.Grid((8.0,), (512,))),
            "cut1": carleman.CutoffSpec(r0=1.0, R=1.0),
            "box": coefficients.SamplingBox.cube(1, 8.0, 65),
            "seeds": [1000 * seed + i for i in range(self.CUBIC_PER_FIELD)],
            "seed2": 1000 * seed + 500,
            "R2": self.TRANSLATED_R[seed % 2],
        }

    def operations(self, inp):
        R = inp["R2"]

        def translated(res):
            f = carleman.make_test_function("translated", inp["st2"],
                                            inp["cut2"], inp["seed2"])
            rep = carleman.carleman_sides_translated(
                f, inp["block"], self.C0 * R ** 2, inp["cut2"], c0=self.C0)
            return f.values, rep
        ops = [("translated", translated)]
        for name, fld in inp["fields"].items():
            def beta1(res, fld=fld):
                lam, _ = coefficients.ellipticity_bounds(fld, inp["box"])
                return lam, carleman.beta_threshold_cubic(lam, inp["cut1"], 1.0)
            ops.append((f"beta1[{name}]", beta1))
            for seed in inp["seeds"]:
                def cubic(res, fld=fld, name=name, seed=seed):
                    lam, beta = res[f"beta1[{name}]"]
                    f = carleman.make_test_function("annulus", inp["st1"],
                                                    inp["cut1"], seed)
                    rep = carleman.carleman_sides_cubic(f, fld, beta,
                                                        inp["cut1"], lam=lam)
                    return f.values, rep
                ops.append((f"cubic[{name},{seed}]", cubic))
        return ops

    def checks(self, inp):
        ext2 = inp["st2"].space.extents

        def translated(res):
            values, rep = res["translated"]
            own = C.carleman_lhs(values, ext2, inp["R2"], rep.beta, PLATEAU,
                                 KNOTS, translated=True)
            return C.check_sample(rep.slack, rep.lhs, rep.rhs, own)
        out = [("translated", ("translated",), translated)]
        ext1 = inp["st1"].space.extents
        x = np.linspace(-8.0, 8.0, 65)
        own_lam = {"identity": 1.0,
                   "mild": float(np.min(1 + 0.06 * np.exp(-x ** 2 / 4)))}
        for name in inp["fields"]:
            op = f"beta1[{name}]"

            def beta1(res, op=op, name=name):
                return C.check_threshold(res[op][1], C.cubic_reference_beta(
                    1.0, own_lam[name], 1.0, PLATEAU, KNOTS))
            out.append((op, (op,), beta1))
            for seed in inp["seeds"]:
                op = f"cubic[{name},{seed}]"

                def cubic(res, op=op):
                    values, rep = res[op]
                    own = C.carleman_lhs(values, ext1, 1.0, rep.beta, PLATEAU,
                                         KNOTS, translated=False)
                    return C.check_sample(rep.slack, rep.lhs, rep.rhs, own)
                out.append((op, (op,), cubic))
        return out


# ---------------------------------------------------------------------------
# symbolic: the graded T-decomposition and the commutator specialization
# ---------------------------------------------------------------------------

class Symbolic:
    name = "symbolic"
    FRONTIER_OPS, FRONTIER_POINTS = (), 0

    def setup(self, seed, workdir):
        pe = parse_expression
        beta = sp.Symbol("beta", positive=True)
        R = sp.Symbol("R", positive=True)
        W = operators.WeightSpec
        CF = coefficients.CoefficientField
        # a 2-D transversal block field with an exp coefficient, which
        # stands in for criterion 01's 2-D one with 1/(1+x2^2)
        tf2 = coefficients.TransversalField(
            2, const(2), ((pe("1 + 0.1*exp(-x2^2)"),),))
        # acceptance criterion 01 without its two 1/(1+x^2) configurations,
        # which alone take 12 s of its 20 s, its full 2-D quadratic one, its
        # 3-D transversal block (3.9 s alone) and its 3-D translated identity,
        # so that five cold passes fit in a run (see README)
        configs = {
            "identity1-quadratic": (CF.identity(1), W("quadratic", beta)),
            "identity2-quadratic": (CF.identity(2), W("quadratic", beta)),
            "diagonal2-scaled": (CF.diagonal((const(2), const(3))),
                                 W("scaled-time", beta, R=R)),
            "identity2-power": (CF.identity(2),
                                W("power", beta, alpha=sp.Rational(3, 2))),
            "block2-translated": (tf2.to_field(), W("translated", beta, R=R)),
            "diagonal2-variable-scaled": (
                CF.diagonal((pe("1+0.1*exp(-x1^2)"), pe("1+0.1*exp(-x2^2)"))),
                W("scaled-time", beta, R=R)),
        }
        x1, x2 = X_SYMBOLS[:2]
        rng = random.Random(seed)
        probes = [x1 ** rng.randrange(3) * x2 ** rng.randrange(1, 3)
                  * sp.exp(-(x1 ** 2 + x2 ** 2)) for _ in range(2)]
        return {"configs": configs, "beta": beta, "probes": probes,
                "identity2": CF.identity(2),
                "quadratic": W("quadratic", beta)}

    def operations(self, inp):
        ops = [(f"tdec[{name}]",
                lambda res, fld=fld, w=w: operators.verify_T_decomposition(
                    fld, w))
               for name, (fld, w) in inp["configs"].items()]

        def comm(res):
            s_op, a_op = operators.conjugate_decompose(inp["identity2"],
                                                       inp["quadratic"])
            return operators.commutator(s_op, a_op, max_spatial_order=2)
        ops.append(("commutator", comm))
        for i, probe in enumerate(inp["probes"]):
            ops.append((f"apply[{i}]",
                        lambda res, probe=probe:
                        res["commutator"].apply_symbolic(probe)))
        return ops

    def checks(self, inp):
        out = []
        for name in inp["configs"]:
            op = f"tdec[{name}]"
            out.append((op, (op,), lambda res, op=op: C.check_t_decomposition(
                res[op].identically_zero, res[op].residual_max,
                res[op].commutator_spatial_order)))
        xs = X_SYMBOLS[:2]
        target = C.quadratic_commutator_target(inp["beta"], xs)
        out.append(("commutator_terms", ("commutator",),
                    lambda res: C.check_commutator_terms(
                        res["commutator"].terms, target)))
        for i, probe in enumerate(inp["probes"]):
            op = f"apply[{i}]"
            out.append((op, ("commutator", op),
                        lambda res, op=op, probe=probe:
                        C.check_applied_commutator(
                            C.identity_commutator_applied(
                                probe, inp["beta"], T_SYMBOL, xs), res[op])))
        return out


# ---------------------------------------------------------------------------
# flow: experiment runs (propagation, convexity, annulus fit, Poincare)
# ---------------------------------------------------------------------------

FLOW_CONFIGS = {
    # variable coefficient, so the remainder goes through the RK4 path
    "simulate": """
[experiment]
kind = simulate
seed = {seed}
output = {out}
[field]
dimension = 1
a11 = "1 + 0.06*exp(-x1^2/4)"
[grid]
extents = [15.0]
points = [1024]
[evolution]
steps = 512
frames = 65
""",
    "convexity-free": """
[experiment]
kind = convexity
seed = {seed}
output = {out}
[field]
dimension = 1
[grid]
extents = [11.25]
points = [1024]
[initial]
s_re = 0.5
s_im = -0.5
[evolution]
steps = 64
frames = 65
[weight]
beta_values = [0.05, 0.1, 0.2]
[tolerances]
boundary_budget = 1e-4
""",
    "convexity-variable": """
[experiment]
kind = convexity
seed = {seed}
output = {out}
[field]
dimension = 1
a11 = "1 + 0.06*exp(-x1^2/4)"
[grid]
extents = [13.5]
points = [1024]
[initial]
s_re = 0.5
s_im = -0.5
[evolution]
steps = 1024
frames = 65
[weight]
beta_values = [0.05]
[tolerances]
boundary_budget = 1e-8
""",
    "lowerbound-fit": """
[experiment]
kind = lowerbound-fit
seed = {seed}
output = {out}
[field]
dimension = 1
[grid]
extents = [18.0]
points = [2048]
[evolution]
steps = 1024
frames = 65
[params]
radii = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
""",
    "poincare": """
[experiment]
kind = poincare
seed = {seed}
output = {out}
[grid]
extents = [4.0, 4.0]
points = [256, 256]
[params]
radii = [0.5, 1.0, 2.0]
n_fields = 12
k_cut = 6.0
""",
}


class Flow:
    name = "flow"
    FRONTIER_OPS, FRONTIER_POINTS = (), 0
    FREE_BETAS = (0.05, 0.1, 0.2)
    SIM_STEPS, SIM_FRAMES = 512, 65

    def setup(self, seed, workdir):
        cfgs = {kind: experiments.validate(text.format(
                    seed=seed, out=Path(workdir) / kind))
                for kind, text in FLOW_CONFIGS.items()}
        line = grids.Grid((15.0,), (1024,))
        packet = evolution.GaussianPacket(1.0, (0.0,))
        pe = parse_expression
        return {
            "configs": cfgs, "line": line, "packet": packet,
            "u0": evolution.WaveState(0.0, packet.sample(line), line),
            "identity": coefficients.CoefficientField.identity(1),
            "linear": coefficients.CoefficientField.identity(1, pe("x1/2")),
            "variable": coefficients.CoefficientField(
                1, ((pe("1 + 0.06*exp(-x1^2/4)"),),)),
            "schrodinger": evolution.DissipationParams(0.0, 1.0),
            "poincare_seed": seed,
        }

    def operations(self, inp):
        ops = [(kind, lambda res, cfg=cfg: experiments.run(cfg))
               for kind, cfg in inp["configs"].items()]
        d = inp["schrodinger"]
        ops.append(("simulate_frames", lambda res: evolution.propagate(
            inp["u0"], inp["variable"], d, (0.0, 1.0), self.SIM_STEPS,
            self.SIM_FRAMES)))
        ops.append(("free_flow", lambda res: evolution.propagate(
            inp["u0"], inp["identity"], d, steps=128, n_frames=2).frames[-1]))
        ops.append(("step_halving", lambda res: [evolution.propagate(
            inp["u0"], inp["linear"], d, steps=s, n_frames=2).frames[-1]
            for s in (64, 128)]))
        return ops

    def checks(self, inp):
        line = inp["line"]
        x = C.axis_points(15.0, 1024)
        h = line.spacings[0]
        cfgs = inp["configs"]

        def free_flow(res):
            return C.check_free_flow(C.l2_distance(
                res["free_flow"], C.free_gaussian(x, 1.0, 1.0), h))

        def step_halving(res):
            ref = C.boosted_gaussian(x, 1.0, 1.0, 0.5)
            coarse, fine = res["step_halving"]
            return C.check_step_halving(C.l2_distance(coarse, ref, h),
                                        C.l2_distance(fine, ref, h))

        def free_H(beta):
            def run(res):
                rows = _read_csv(cfgs["convexity-free"].output
                                 / f"convexity_beta{beta}.csv")
                return C.check_free_H([float(r["t"]) for r in rows],
                                      [float(r["H"]) for r in rows],
                                      beta, 0.5, -0.5)
            return run

        def mass(res):
            return C.check_mass_drift(res["simulate_frames"].frames, h)

        def convexity(res):
            rows = _read_csv(cfgs["convexity-variable"].output
                             / "convexity_beta0.05.csv")
            return C.check_log_convexity(
                [float(r["t"]) for r in rows], [float(r["H"]) for r in rows],
                C.field_smallness(0.06, 4.0, 13.5))

        def annulus(res):
            rows = _read_csv(cfgs["lowerbound-fit"].output / "profile.csv")
            return C.check_annulus([float(r["R"]) for r in rows],
                                   [float(r["delta"]) for r in rows])

        def poincare(res):
            cfg = cfgs["poincare"]
            rows = [tuple(float(r[k]) for k in
                          ("r", "lhs", "rhs_grad", "rhs_moment", "ratio"))
                    for r in _read_csv(cfg.output / "poincare.csv")]
            radii = cfg.get("params", "radii")
            grid = grids.Grid((4.0, 4.0), (256, 256))
            field0 = grids.band_limited_noise(
                grid, np.random.default_rng(inp["poincare_seed"]),
                cfg.get("params", "k_cut"))
            own = [C.poincare_terms(field0, grid.extents, r) for r in radii]
            return C.check_poincare(rows, own)

        def checkpoint(res):
            traj = res["simulate_frames"]
            _, _, times, frames = C.read_checkpoint(
                cfgs["simulate"].output / "trajectory.uctj")
            return C.check_checkpoint(times, frames, traj.times, traj.frames)

        def reports(res):
            statuses = {run: {name: chk["status"]
                              for name, chk in res[run].checks.items()}
                        for run in cfgs}
            written = []
            for cfg in cfgs.values():
                path = cfg.output / "report.json"
                written.append((cfg.kind, json.loads(path.read_text())["kind"]
                                if path.exists() else None))
            return C.check_reports(statuses, written)

        out = [("free_flow", ("free_flow",), free_flow),
               ("step_halving", ("step_halving",), step_halving)]
        out += [(f"free_H[beta={b}]", ("convexity-free",), free_H(b))
                for b in self.FREE_BETAS]
        out += [("mass_drift", ("simulate_frames",), mass),
                ("log_convexity", ("convexity-variable",), convexity),
                ("annulus_fit", ("lowerbound-fit",), annulus),
                ("poincare", ("poincare",), poincare),
                ("checkpoint", ("simulate", "simulate_frames"), checkpoint),
                ("reports", tuple(cfgs), reports)]
        return out


WORKLOADS = {w.name: w for w in (Frontier(), Samples(), Symbolic(), Flow())}
