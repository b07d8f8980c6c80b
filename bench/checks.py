"""Checks of one run's outputs against the independent references.

Each check belongs to a scope: the verify call, one table1 estimate, or the
workload itself.  Verify and table1 outputs are byte-identical across a
run's calls, so a failed check fails that operation in every call.

A confidence is the program's estimate of the set's unnormalized mass
divided by its estimated normalizer z.  The checks compare numerators, so
that z's own error, which is large where few samples land in the
posterior, cannot widen them: a confidence times z/Z_ref, with Z_ref the
quadrature normalizer, is compared with the set's quadrature mass over
Z_ref, within K_SE of the estimate's own standard errors, also times
z/Z_ref.  The normalizer is checked on its own where it is gated.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

SAFETY_CELLS = 400     # quadrature cells per axis on the safety prior box
UNTIL_CELLS = 160      # on the until prior box; 150 agrees with 300 to 2e-5
DISC_CELLS = 40
LIKELIHOOD_RTOL = 1e-9
K_SE = 4.0


class Checks:
    def __init__(self):
        self.items = []

    def add(self, scope, name: str, ok: bool, detail: str) -> None:
        self.items.append({"scope": scope, "name": name, "ok": bool(ok),
                           "detail": detail})

    @property
    def failed(self) -> list:
        return [c for c in self.items if not c["ok"]]


def _distance(value: float, lo: float, hi: float) -> float:
    return max(lo - value, value - hi, 0.0)


def _groups(worker: dict) -> list:
    """(scope, posterior, {"mc": estimate, "pwa": estimate}) per posterior.

    table1 posteriors are numbered in call order, which is the order of the
    report's rows and repetitions.
    """
    cap = worker["capture"]
    groups, n_table1 = [], 0
    for index, post in enumerate(cap["posteriors"]):
        if post["command"] == "verify":
            scope = ("verify",)
        else:
            scope = ("table1", n_table1)
            n_table1 += 1
        ests = {e["estimate"]["method"].replace("monte_carlo", "mc"):
                e["estimate"] for e in cap["estimates"]
                if e["posterior"] == index}
        groups.append((scope, post, ests))
    return groups


def _report_matches_capture(checks: Checks, worker: dict, groups) -> None:
    """The captured estimates are the ones the reports hold."""
    verify = worker["reports"]["verify"]["results"]
    table1 = worker["reports"]["table1"]["results"]["rows"]
    flat = {"mc": [v for row in table1 for v in row.get("mc", {}).get("values", [])],
            "pwa": [v for row in table1 for v in row.get("pwa", {}).get("values", [])]}
    for scope, post, ests in groups:
        for method, est in ests.items():
            if scope[0] == "verify":
                got = verify[method]["raw_value"]
                want = est["raw_value"]
                z_ok = (verify["normalizer"]["z"] == post["z"])
            else:
                got = flat[method][scope[1]]
                want = est["value"]
                z_ok = True
            checks.add(scope, f"{method} report equals the captured estimate",
                       got == want and z_ok, f"{got!r} vs {want!r}")


def _likelihood(checks: Checks, model: dict, prior_volume: float, groups,
                datasets) -> None:
    for scope, post, _ in groups:
        if post["dataset"] is None:
            continue
        data = datasets[post["dataset"]]
        want = ref.kalman_loglik(model, np.asarray(post["draws"]), data["x0"],
                                 data["inputs"], data["outputs"]) \
            - math.log(prior_volume)
        got = np.asarray(post["log_unnormalized"])
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        checks.add(scope, f"log_unnormalized at {len(got)} prior draws equals "
                   "the Kalman reference plus the log prior",
                   rel <= LIKELIHOOD_RTOL, f"max relative error {rel:.2e}")


def check_safety(checks: Checks, cfg: dict, model: dict, groups,
                 datasets) -> dict:
    """Checks for `G[a,b] (...)`: masses of the Boole-split set and superset."""
    lower = np.asarray(cfg["prior"]["lower"], dtype=float)
    upper = np.asarray(cfg["prior"]["upper"], dtype=float)
    region = cfg["theta_region"]
    if not (np.allclose(region["lower"], lower)
            and np.allclose(region["upper"], upper)):
        raise ValueError("the safety references need theta_region == prior box")
    log_vol = math.log(float(np.prod(upper - lower)))
    boole = ref.CellSet(lambda t: ref.safety_margin(cfg, model, t),
                        lower, upper, SAFETY_CELLS)
    superset = ref.CellSet(lambda t: ref.safety_margin(cfg, model, t, True),
                           lower, upper, SAFETY_CELLS)
    summary = {}
    for scope, post, ests in groups:
        if post["dataset"] is None:
            def log_f(t):
                return np.full(len(t), -log_vol)
        else:
            like = ref.loglik_fn(model, datasets[post["dataset"]])

            def log_f(t, like=like):
                return like(t) - log_vol
        grid = ref.GridPosterior(log_f, lower, upper, SAFETY_CELLS)
        log_z = grid.log_total
        c_lo, c_hi = (math.exp(m - log_z) for m in grid.mass(boole))
        s_hi = math.exp(grid.mass(superset)[1] - log_z)
        z, z_se = post["z"], post["z_std_error"]
        if post["dataset"] is None:
            checks.add(scope, "prior-only normalizer is exactly 1",
                       z == 1.0 and z_se == 0.0, f"z={z!r} se={z_se!r}")
        else:
            z_ref = math.exp(log_z)
            checks.add(scope, f"|z - Z_ref| <= {K_SE:g} z_se",
                       abs(z - z_ref) <= K_SE * z_se,
                       f"z={z:.6g} Z_ref={z_ref:.6g} z_se={z_se:.3g}")
        scale = math.exp(post["log_z"] - log_z)    # z / Z_ref
        summary.setdefault("C_ref", [c_lo, c_hi])
        mc, pwa = ests.get("mc"), ests.get("pwa")
        if mc is not None:
            raw = mc["raw_value"] * scale
            err = K_SE * mc["std_error"] * scale
            checks.add(scope, f"mc within {K_SE:g} SE of the Boole-split mass",
                       _distance(raw, c_lo, c_hi) <= err,
                       f"mc*z/Z_ref={raw:.5f} C_ref=[{c_lo:.5f}, {c_hi:.5f}] "
                       f"{K_SE:g}SE={err:.5f}")
            checks.add(scope, "mc at most the superset mass plus its error",
                       raw <= s_hi + err,
                       f"mc*z/Z_ref={raw:.5f} superset={s_hi:.5f}")
        if pwa is not None:
            value = pwa["raw_value"] * scale
            top = (pwa["raw_value"] + pwa["unknown_mass"]) * scale
            err_lo = K_SE * pwa["std_error"] * scale
            err_hi = K_SE * math.hypot(pwa["std_error"],
                                       pwa["unknown_std_error"]) * scale
            checks.add(scope, "pwa interval brackets the Boole-split mass",
                       value <= c_hi + err_lo and top >= c_lo - err_hi,
                       f"[{value:.5f}, {top:.5f}]*z/Z_ref C_ref=[{c_lo:.5f}, "
                       f"{c_hi:.5f}]")
        if mc is not None and pwa is not None:
            margin = 3.0 * (mc["std_error"] + pwa["std_error"])
            checks.add(scope, "pwa <= mc + 3 SE",
                       pwa["raw_value"] <= mc["raw_value"] + margin,
                       f"pwa={pwa['raw_value']:.5f} mc={mc['raw_value']:.5f} "
                       f"3SE={margin:.5f}")
    summary["boundary_cells"] = boole.mixed_cells
    return summary


def check_until(checks: Checks, cfg: dict, model: dict, groups,
                datasets) -> dict:
    """Checks for the until property: values below the disc's mass.

    The reach bound is checked at every parameter of the config's Table-1
    list, whether or not the workload's table1 runs it.
    """
    band, window = ref.parse_until_band(cfg)
    delta = float(cfg["delta"])
    radius = ref.until_feasible_radius(model, delta, band, window)
    for theta in cfg["table1"]["theta_true_list"]:
        bound = ref.until_reach_bound(model, theta, band, window)
        checks.add(("workload",), f"reach bound below 1 - delta at {theta}",
                   bound < 1.0 - delta, f"Pr(psi) <= {bound:.4f}")
    lower = np.asarray(cfg["prior"]["lower"], dtype=float)
    upper = np.asarray(cfg["prior"]["upper"], dtype=float)
    log_vol = math.log(float(np.prod(upper - lower)))
    summary = {"radius": radius, "D": []}
    for scope, post, ests in groups:
        if post["dataset"] is None:
            raise ValueError("the until references need data")
        like = ref.loglik_fn(model, datasets[post["dataset"]])

        def log_f(t, like=like):
            return like(t) - log_vol
        log_z = ref.GridPosterior(log_f, lower, upper, UNTIL_CELLS).log_total
        disc = ref.GridPosterior(log_f, [-radius] * 2, [radius] * 2,
                                 DISC_CELLS)
        d_hi = math.exp(disc.disc_mass(radius) - log_z)
        summary["D"].append(d_hi)
        scale = math.exp(post["log_z"] - log_z)    # z / Z_ref
        for method, est in ests.items():
            value = est["raw_value"] * scale
            err = K_SE * est["std_error"] * scale
            checks.add(scope, f"{method} within [0, D + {K_SE:g} SE]",
                       est["raw_value"] >= 0.0 and value <= d_hi + err,
                       f"{method}*z/Z_ref={value:.4g} D={d_hi:.3g} "
                       f"{K_SE:g}SE={err:.3g}")
    return summary


def check_run(verify_cfg: dict, worker: dict):
    """All checks of one run; returns (Checks, summary of the references)."""
    checks = Checks()
    model = ref.model_from_config(verify_cfg)
    datasets = worker["capture"]["datasets"]
    groups = _groups(worker)
    if worker["reports"]["verify"] is None or worker["reports"]["table1"] is None:
        checks.add(("workload",), "both commands wrote a report", False, "")
        return checks, {}
    _report_matches_capture(checks, worker, groups)
    lower = np.asarray(verify_cfg["prior"]["lower"], dtype=float)
    upper = np.asarray(verify_cfg["prior"]["upper"], dtype=float)
    _likelihood(checks, model, float(np.prod(upper - lower)), groups, datasets)
    if verify_cfg["formula"].lstrip().startswith("G"):
        summary = check_safety(checks, verify_cfg, model, groups, datasets)
    else:
        summary = check_until(checks, verify_cfg, model, groups, datasets)
    return checks, summary
