"""Golden digests that pin every family's log-density and draws to the bit.

Each digest is SHA-256 over the little-endian bytes of the returned array.
The KS and determinism tests in ``test_densities.py`` cannot see a changed
rounding or a reordered RNG call; these can. A digest changes only when a
formula's floating-point expression or a sampler's call order changes, and
such a change should be made on purpose, with the digest updated beside it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from logconmix.families import (Beta15, Exponential, Normal, ShiftedChiSq3,
                                StudentT, Tabulated, Uniform, sample_mixture)
from logconmix.rng import make_rng
from logconmix.simulate import model_catalog

from conftest import trapezoid


def _tabulated() -> Tabulated:
    grid = np.linspace(-1.0, 3.0, 21)
    raw = -0.5 * (grid - 0.5) ** 2
    return Tabulated(grid, raw - math.log(trapezoid(np.exp(raw), grid)))


FAMILIES = {
    "normal": Normal(0.0, 2.0),
    "normal_unknown": Normal(3.0, 1.0),
    "uniform": Uniform(0.0, 1.0),
    "exponential": Exponential(0.25),
    "student_t": StudentT(5.0),
    "tabulated": _tabulated(),
    "shifted_exponential": Exponential(0.5, 3.0),
    "beta15": Beta15(),
    "shifted_chisq3": ShiftedChiSq3(2.0),
    "shifted_t5": StudentT(5.0, 3.0),
}

# A grid that crosses every support edge above, plus each edge exactly.
GRID = np.concatenate((np.linspace(-6.0, 9.0, 61),
                       [-1.0, 0.0, 1.0, 2.0, 3.0, 1e-300, -1e-300, 1.0 - 1e-16]))


def _digest(arr) -> str:
    a = np.asarray(arr)
    a = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


LOG_PDF_DIGESTS = {
    "beta15":
        "181e1ab3e2134ae9379b0dd1fc83f31015edac3c8ff066041a63a8630ebaaaa6",
    "exponential":
        "ec317bf89be80a64bdd5e1adc8a0b64dee9ebff1cbcf8fd59250e7e2be0d1c89",
    "normal":
        "babe342b4853caf5638cc3b2969ed5e8e4f4ed6339fc8dfbb35b895164e84f48",
    "normal_unknown":
        "f3c6d22770bb1afbdf405d5e93862d4ab779c9da4278e920de6259c87b6e2d33",
    "shifted_chisq3":
        "cb3d53979b35d7d6c77ca31278159c133c7aea6b9555a27a3a78b711c478eaf8",
    "shifted_exponential":
        "d8b43d987dd30092e5b0b89c8830d7647bf79ef56cc976459dfc930615f6646e",
    "shifted_t5":
        "414635f547a9fc324b50e545d64d043b0af93074efa2b1f3fb9ef4aeb7a0fb06",
    "student_t":
        "a6f0719f5da0a1338a187075c1af3869e9e8f18d799c893221408dfa45420b22",
    "tabulated":
        "8aa383e2eafed7412b9c22a28293908d33c3103a9e05ae93df3c3112dfea1e6c",
    "uniform":
        "ba4cc4dc89f7f6e0262105ca631aff3cb721d079fcb02d2629b51bb115fece0e",
}

DRAW_DIGESTS = {
    "beta15":
        "a8615d8a8614f612a631dc225ec1e23c72f4b261d90f2ac7a021dc33192508fc",
    "exponential":
        "08e74d09c65a5d6c5d9765040281bed533d50b573ccd38ba796e3aa02daebb40",
    "normal":
        "fff4651e07569f008c487733042b7a182786201109b27ecb1fd687d7222b6476",
    "normal_unknown":
        "6c00295a4463f22246e3fb3f28a6588ef703ee123f530ba5de29acadef851f93",
    "shifted_chisq3":
        "2c052f59f1e560ffcce345e8abcbb6f652236c61c78edb00d34eef8a54af25d4",
    "shifted_exponential":
        "9125b590f4156b5c66ef5ec91ee44c48237ec7a964be06fa07730dacff5a29e5",
    "shifted_t5":
        "0cb22b5eae267b9ee66aac41fc0f9ada0fc38654d21e0386fbaf070cb9a67113",
    "student_t":
        "3f74a8d7622246973044945b706f8116c699a2d7fa67ffba5769ddbb1bbea7cd",
    "tabulated":
        "3a4d4d21ed21362348769e2a3ead3cb0bda0438ed44241ee20f1d591251f2e75",
    "uniform":
        "465cdfa045aca3adc77620b5152d5a77d59fac5c5832b0d596a3e2ae6176e36f",
}

MIXTURE_DIGESTS = {
    1: ("ba2c60a5e6e6adee151e61f39803bfb5e21a070d5f40937796bf2e33837f7bec",
        "70167567ee050ca4867d42c22dcab6c470dc210c3af99bab09680db3d287262c"),
    2: ("db3aa991bd8b29ef32b38c6823c343f3647032c184b379395a5dc6f23017df2a",
        "fef127fae5896c680ac47549265a4feec7f6a8a2680e7e1f4381ca0a4e5792f0"),
    3: ("28129caa0feb7e6f88727c3500129870624dc7dbd84acecb6365484ac4a593d7",
        "c05d3867a5fbe3c8fd4ccb5f2a16a52c2c491a47a60322214edd3203a0698212"),
    4: ("87fe000e4c014dc7adc7d430afb0b06f70a9ea8d8b0647b064b12458f38dcfcc",
        "4e253409126636bb5ed0b59015240f8ecd0b54b5c2ebc90ef5bfabe04b368bf3"),
    5: ("dd82957da342ba8b502480fbf44f22cde5d1df880237c52a910312e1638a1a58",
        "ef6e0e93d719dd8248b530196a6453afccfca8589f0da08ee9162c39b1cc704a"),
    6: ("094d3dd0dffe0fc2a038bd97b4e27eb4b5ac1a3471418febeda2cd74c060e99a",
        "0260fc52e6b34fc5b467e6c9c6649c93a9f5ab18078e7bb38ce312ff20dff5f2"),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_log_pdf_digest(name):
    assert _digest(FAMILIES[name].log_pdf(GRID)) == LOG_PDF_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_draw_digest(name):
    rng = make_rng(1000 + sorted(FAMILIES).index(name))
    assert _digest(FAMILIES[name].draw(257, rng)) == DRAW_DIGESTS[name]


@pytest.mark.parametrize("model_id", sorted(model_catalog()))
def test_sample_mixture_digest(model_id):
    spec = model_catalog()[model_id]
    values, labels = sample_mixture(spec.known, spec.unknown, 0.3, 257,
                                    2000 + model_id)
    assert (_digest(values), _digest(labels)) == MIXTURE_DIGESTS[model_id]


# run_em on catalog models 1-6 x p in {0.1, 0.9} at n = 200, the i-th cell
# drawn from child_seed(EM_SEED, i), on whichever kernel backend is active:
# both give the same bits. One digest over every run's p_hat, omega, fit
# knots and phi, likelihood trace and iteration count pins the whole EM
# path, solver included, to the bit.
EM_SEED = 20190326
EM_DIGEST = "12c392ec41fd3df2389d92cca5350ef9f06cfb032e1f5c5aa03e0c2580f2e991"


def test_run_em_on_the_catalog_is_pinned_bitwise():
    from logconmix.em import run_em
    from logconmix.rng import child_seed

    digest = hashlib.sha256()
    cells = [(m, p) for m in range(1, 7) for p in (0.1, 0.9)]
    for i, (model, p) in enumerate(cells):
        spec = model_catalog()[model]
        values, _ = sample_mixture(spec.known, spec.unknown, p, 200,
                                   child_seed(EM_SEED, i))
        r = run_em(values, spec.known)
        for arr in (np.float64(r.p_hat), r.omega, r.fit.knots, r.fit.phi,
                    r.loglik_trace, np.int64(r.iterations)):
            digest.update(_digest(arr).encode())
    assert digest.hexdigest() == EM_DIGEST


# Every way out of an EM pass, one digest per case over p_hat, omega, the
# fit's knots and phi, the trace, iterations, converged and degenerate:
# - "cap_pilot", "cap_flat": the first cell above at max_iters=3;
# - "clamp_10", "clamp_50", "clamp_51": the tied model-3 sample of
#   test_solver under budgets below, at and just above the clamp's cap of
#   50; each pass converges within 10 iterations, so the three are one run;
# - "all_known_start": a flat start whose unknown mass is below the
#   collapse threshold before the first iteration;
# - "all_unknown": data far outside f0, so the known component collapses.
# The in-loop AllKnown exit, which no drawn sample was seen to reach, is
# pinned by test_an_in_loop_all_known_exit_keeps_the_previous_fit below.
EXIT_DIGESTS = {
    "cap_pilot":
        "fc0efbb347b533828e87fdc1b83a94cf07d6fc3f7ec1a5ad6c6740bb6d1d50b6",
    "cap_flat":
        "f6b418ffcd62d8bf7986b8c60d080c9b28f3e51f542cdae2bd811b88fcb235c5",
    "clamp_10":
        "31113a2f5ca8a4a3f8a1a9c8393fc1e1cffb0f3847634e0f12e48a94e2efc1f6",
    "clamp_50":
        "31113a2f5ca8a4a3f8a1a9c8393fc1e1cffb0f3847634e0f12e48a94e2efc1f6",
    "clamp_51":
        "31113a2f5ca8a4a3f8a1a9c8393fc1e1cffb0f3847634e0f12e48a94e2efc1f6",
    "all_known_start":
        "e2d5c0890b3d988ff6dbff1f37ddafe8bab80cfb98ff1794eb23f67e41f80f91",
    "all_unknown":
        "69feaec083f10f3a474ca11c16bcd10068d6ae6d638b8f0dfab195f3905b946b",
    "all_known_in_loop":
        "febff3264537e0de4c1f79230220ae5d199f54b63c5a6b6fb0bdf3a16df0322b",
}


def _exit_case(name):
    from logconmix.em import EmConfig
    from logconmix.families import Normal
    from logconmix.rng import child_seed
    from test_solver import _tied_catalog_sample

    if name.startswith("cap_"):
        spec = model_catalog()[1]
        values, _ = sample_mixture(spec.known, spec.unknown, 0.1, 200,
                                   child_seed(EM_SEED, 0))
        return values, spec.known, EmConfig(max_iters=3, init=name[4:])
    if name.startswith("clamp_"):
        values, f0 = _tied_catalog_sample()
        return values, f0, EmConfig(max_iters=int(name[6:]))
    if name == "all_known_start":
        return (Normal(0.0, 2.0).draw(200, make_rng(1)), Normal(0.0, 2.0),
                EmConfig(init="flat", p_init=1e-7))
    return np.random.default_rng(3).normal(50.0, 1.0, 300), Normal(0.0, 1.0), None


def _exit_digest(p, omega, fit, trace, iterations, converged, degenerate) -> str:
    digest = hashlib.sha256()
    for arr in (np.float64(p), omega, fit.knots, fit.phi,
                np.asarray(trace, dtype=float), np.int64(iterations)):
        digest.update(_digest(arr).encode())
    digest.update(repr((bool(converged), degenerate)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(set(EXIT_DIGESTS) - {"all_known_in_loop"}))
def test_every_em_exit_is_pinned_bitwise(name):
    from logconmix.em import run_em

    values, f0, config = _exit_case(name)
    r = run_em(values, f0, config)
    want = {"cap": (False, None), "clamp": (True, None),
            "all": (True, "AllKnown" if name == "all_known_start" else "AllUnknown")}
    assert (r.converged, r.degenerate) == want[name.split("_")[0]]
    assert _exit_digest(r.p_hat, r.omega, r.fit, r.loglik_trace, r.iterations,
                        r.converged, r.degenerate) == EXIT_DIGESTS[name]


def test_an_in_loop_all_known_exit_keeps_the_previous_fit(monkeypatch):
    # the E-step after the first counted iteration is made to return a
    # collapsed omega, so the second iteration finds no unknown mass: the
    # pass keeps the first iteration's fit and f-values, reports p = 0 and
    # omega = 1, adds no trace entry, and counts the second iteration
    from logconmix import em
    from logconmix.families import log_pdf_known
    from logconmix.logcon import _Grid
    from test_solver import _tied_catalog_sample

    values, f0 = _tied_catalog_sample()
    x = np.sort(values)
    f0_values = np.exp(log_pdf_known(f0, x))
    e_steps, fits = [], []
    e_step, m_step_f = em.e_step, em.m_step_f

    def collapsing(p, f0v, fv):
        omega, loglik = e_step(p, f0v, fv)
        e_steps.append((fv, loglik))
        return (np.ones_like(omega) if len(e_steps) == 2 else omega), loglik

    def recorded(*args, **kwargs):
        fits.append(m_step_f(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(em, "e_step", collapsing)
    monkeypatch.setattr(em, "m_step_f", recorded)
    grid = _Grid(x)
    s = em._em_pass(grid, f0_values, np.full(x.size, 0.5), em.EmConfig(init="flat"))
    assert (s.converged, s.degenerate, s.iterations) == (True, "AllKnown", 2)
    assert s.p == 0.0 and np.all(s.omega == 1.0)
    assert len(fits) == 2 and s.fit is fits[-1]
    assert len(e_steps) == 2 and grid.f_values(s.fit).tobytes() == e_steps[-1][0].tobytes()
    assert s.trace == [loglik for _, loglik in e_steps]
    assert _exit_digest(s.p, s.omega, s.fit, s.trace, s.iterations, s.converged,
                        s.degenerate) == EXIT_DIGESTS["all_known_in_loop"]


# Every way out of a solver round, pinned per fit: one digest over every
# fit_weighted_logconcave call of a run_em, in call order (knots, phi,
# objective, kkt_residual, converged), with the counts of knot_grad_hess
# points (direct calls plus those newton_solve evaluates) and of Newton
# steps. The cases:
# - "stalled": model 1, p = 0.1, n = 1000, child_seed(2197521499, 0), 296
#   iterations to p_hat 0.1356; 17 of its 1055 rounds end on an exhausted
#   line search, two fits stop when a released constraint is re-activated
#   without progress, three reach the round cap, and 741 knots are dropped;
# - "no_gain": the heavy-tailed sample of test_solver, 46 iterations; 6 of
#   its 205 rounds end on a step that the line search accepts without a
#   gain in psi, and 9 on an exhausted line search;
# - "newton_cap": the first cell of EM_SEED with two Newton steps a round,
#   so most rounds end at the Newton cap;
# - "rounds_1", "rounds_3": the tied model-3 sample of test_solver with
#   one and three outer rounds a fit, so fits end at the round cap, with
#   no release in their last round.
FIT_DIGESTS = {
    "stalled": (
        "ea039d7006c89f0e139a8dca55354e4ab665741af769002ef6e10f87eaabd5bf", 4087, 1650),
    "no_gain": (
        "3ebf95bda785881b53eda71edf3b1952746be0f99ed40e078ee884c2492198f2", 951, 446),
    "newton_cap": (
        "c61dd57b2e2fdeadcf3c1e2ec3e5a85a4f73a63648d322cb42ed8362a20f6824", 1766, 740),
    "rounds_1": (
        "bab1cf715186484e4c9dcc518a418cd9017bc4387f8e16df9c90271cdeaeda17", 81, 37),
    "rounds_3": (
        "8c5ddb111a63e9bfeea77a7ec0ffe537dc870319bf488fd2130ab0216ef15a99", 192, 136),
}


@pytest.mark.parametrize("name", sorted(FIT_DIGESTS))
def test_every_solver_exit_is_pinned_bitwise(name, monkeypatch):
    from logconmix import em, kernels, logcon
    from logconmix.rng import child_seed
    from test_solver import _heavy_tailed_sample, _tied_catalog_sample

    if name.startswith("rounds_"):
        values, f0 = _tied_catalog_sample()
        monkeypatch.setattr(logcon, "_MAX_OUTER_ITERS", int(name[7:]))
    elif name == "no_gain":
        values, f0 = _heavy_tailed_sample()
    else:
        spec = model_catalog()[1]
        n, seed = ((1000, child_seed(2197521499, 0)) if name == "stalled"
                   else (200, child_seed(EM_SEED, 0)))
        values, _ = sample_mixture(spec.known, spec.unknown, 0.1, n, seed)
        f0 = spec.known
        if name == "newton_cap":
            monkeypatch.setattr(logcon, "_MAX_NEWTON_ITERS", 2)
    digest = hashlib.sha256()
    calls = {"knot_grad_hess": 0, "solve_newton_step": 0}
    grad_hess, solve = kernels.knot_grad_hess, kernels.newton_solve

    def counted_grad_hess(*args):
        calls["knot_grad_hess"] += 1
        return grad_hess(*args)

    def counted_solve(*args):
        # each step solved one Newton system, and each point it evaluated
        # was one knot_grad_hess call before the loop moved into the kernel
        out = solve(*args)
        calls["solve_newton_step"] += out[4]
        calls["knot_grad_hess"] += out[5]
        return out

    def recorded(*args, **kwargs):
        fit = fit_weighted_logconcave(*args, **kwargs)
        for arr in (fit.knots, fit.phi, np.float64(fit.objective),
                    np.float64(fit.kkt_residual)):
            digest.update(_digest(arr).encode())
        digest.update(repr(bool(fit.converged)).encode())
        return fit

    monkeypatch.setattr(kernels, "knot_grad_hess", counted_grad_hess)
    monkeypatch.setattr(kernels, "newton_solve", counted_solve)
    fit_weighted_logconcave = em.fit_weighted_logconcave
    monkeypatch.setattr(em, "fit_weighted_logconcave", recorded)
    em.run_em(values, f0)
    assert (digest.hexdigest(), calls["knot_grad_hess"],
            calls["solve_newton_step"]) == FIT_DIGESTS[name]
