import cmath
import collections
import dataclasses
import gc
import inspect
import itertools
import math
import pickle
import traceback

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (assert_close, differential_kernels, family_bounds, one_mode_moments, random_one_mode,
                      random_two_mode, scaled_two_mode, two_mode_kernels)
from test_twomode import K_STAR
from gausspair import cli, fock, kernels, linalg, onemode, phasespace, states, twomode
from gausspair.errors import (NotAStateError, NotPositiveError, NotPRepresentableError, NotPureError,
                              SingularMatrixError, WrongModeCountError)
from gausspair.kernels import GaussianKernel, convert

EPS = np.finfo(float).eps


def test_vacuum_conversions():
    vac = GaussianKernel("C", 0.5 * np.eye(2))
    w = convert(vac, "W")
    q = convert(vac, "Q")
    assert_close(w.matrix, 2.0 * np.eye(2))
    assert_close(q.matrix, np.eye(2))
    # the algebraic link between the two quasi-probability kernels
    assert_close((2 * np.eye(2) + w.matrix) @ (2 * np.eye(2) - q.matrix), 4 * np.eye(2))


def test_thermal_n1_all_four_kinds():
    c = onemode.build_C(onemode.OneModeMoments(n=1.0, m=0.0))
    assert_close(convert(c, "W").matrix, (2.0 / 3.0) * np.eye(2))
    assert_close(convert(c, "Q").matrix, 0.5 * np.eye(2))
    assert_close(convert(c, "P").matrix, np.eye(2))


def test_convert_is_kind_closed():
    c = onemode.build_C(onemode.OneModeMoments(n=1.0, m=0.5))
    for target in ("C", "W", "Q", "P"):
        assert convert(c, target).kind == target
    with pytest.raises(ValueError):
        convert(c, "X")


@given(one_mode_moments(positive_only=True))
def test_one_mode_round_trip(p):
    c = onemode.build_C(p)
    k = c
    for target in ("W", "Q", "C"):
        k = convert(k, target)
    assert np.allclose(k.matrix, c.matrix, rtol=0.0, atol=1e-9)


@given(two_mode_kernels())
def test_two_mode_round_trip_and_wq_identity(k):
    back = convert(convert(convert(k, "W"), "Q"), "C")
    assert np.allclose(back.matrix, k.matrix, rtol=0.0, atol=1e-9)
    w = convert(k, "W").matrix
    q = convert(k, "Q").matrix
    assert_close((2 * np.eye(4) + w) @ (2 * np.eye(4) - q), 4 * np.eye(4), tol=1e-9)


def test_p_round_trip_when_representable():
    c = onemode.build_C(onemode.OneModeMoments(n=1.5, m=0.5))
    p = convert(c, "P")
    assert np.allclose(convert(p, "C").matrix, c.matrix, rtol=0.0, atol=1e-9)


def test_p_conversion_refused_for_pure_state():
    pure = onemode.build_C(onemode.OneModeMoments(n=1.0, m=np.sqrt(2.0)))
    with pytest.raises(NotPRepresentableError):
        convert(pure, "P")


def test_negative_c_is_not_a_state():
    with pytest.raises(NotAStateError):
        GaussianKernel("C", [[0.5, 1.0], [1.0, 0.5]])


def test_boundary_c_is_kept():
    # an exactly singular C still describes a (degenerate) Gaussian
    k = GaussianKernel("C", [[1.0, 1.0], [1.0, 1.0]])
    assert k.det == pytest.approx(0.0)
    with pytest.raises(SingularMatrixError):
        convert(k, "W")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        GaussianKernel("Z", np.eye(2))


def _carried_pair_rebuilds(k, c_scale=0.0):
    """V diag(x) V^dag matches the stored matrix within band(max|x|, 1), widened for
    a kind other than C by the error of an eigensolver's V, eps |C| / gap, that x = 1/(lam + s)
    carries into the kernel as eps |C| max|x|^2 and its normal form halves."""
    x, v = k.eig
    scale = np.abs(x).max() * max(1.0, c_scale * np.abs(x).max())
    return np.abs((v * x) @ v.conj().T - k.matrix).max() <= linalg.band(scale, 1)


def _formed(x, v) -> np.ndarray:
    """V diag(x) V^dag, hermitized and put in normal form: the matrix of a converted kernel."""
    m = (v * x) @ v.conj().T
    return linalg.normal_form(0.5 * (m + m.conj().T))


def _count_calls(monkeypatch) -> dict:
    """Counts of eigensolver calls and of matrices formed through ``linalg.hermitian_part``."""
    calls = {"eigh": 0, "eigvalsh": 0, "formed": 0}
    for name in ("eigh", "eigvalsh"):
        def counting(*args, name=name, real=getattr(np.linalg, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(np.linalg, name, counting)

    def hermitian_part(m, real=linalg.hermitian_part):
        calls["formed"] += 1
        return real(m)

    monkeypatch.setattr(linalg, "hermitian_part", hermitian_part)
    return calls


def test_one_eigensolve_per_chain(monkeypatch):
    calls = _count_calls(monkeypatch)
    # a family kernel carries its closed-form pair; a kernel of complex moments diagonalizes once
    complex_moments = twomode.TwoModeMoments(0.9, 0.8, 0.1j, 0.05, 0.1 + 0.05j, 0.3 - 0.1j)
    for build, eighs in ((lambda: states.anti_epr(0.9, 0.5, 0.3), 0), (lambda: twomode.build_C2(complex_moments), 1)):
        calls.update(eigh=0, formed=0)
        k = build()
        assert twomode.classify2(k).p_representable
        chain = [k]
        for target in "WQPC":
            chain.append(convert(chain[-1], target))
        # the family C forms its matrix only when read and the built C2 holds its assembled one; the chain
        # ends in that C itself, so reading its last kernel forms no matrix from a pair
        assert calls == {"eigh": eighs, "eigvalsh": 0, "formed": 0} and chain[-1] is k
        back = chain[-1].matrix
        assert calls == {"eigh": eighs, "eigvalsh": 0, "formed": 0}
        assert chain[-1].matrix is back is k.matrix and not back.flags.writeable
        assert all(_carried_pair_rebuilds(c) for c in chain)
        # W, Q and P each formed once, when first read
        assert calls == {"eigh": eighs, "eigvalsh": 0, "formed": 3}


@pytest.mark.parametrize(
    "build",
    [lambda: states.mixed_epr(0.8, 1.0), lambda: states.anti_epr(0.9, 0.5, 0.3), lambda: states.squeezed_epr(0.9, 0.5, 0.3),
     lambda: states.smoothed_epr(states.SmoothedEprParam(0.7))],
    ids=["mixed_epr", "anti_epr", "squeezed_epr", "smoothed_epr"],
)
def test_family_kernels_run_no_eigensolver(monkeypatch, build):
    calls = _count_calls(monkeypatch)
    det2 = collections.Counter()
    monkeypatch.setattr(linalg, "block_dets", lambda *args, real=linalg.block_dets: det2.update(["calls"]) or real(*args))
    k = build()
    twomode.classify2(k)
    twomode.trace_g2(k)
    convert(convert(convert(k, "W"), "Q"), "C")
    # the verdict reads the carried eigenvalues and block determinants: no array is made or read
    assert calls == {"eigh": 0, "eigvalsh": 0, "formed": 0} and not det2
    assert not isinstance(k._matrix, np.ndarray)
    x, v = k.eig
    assert x.tolist() == list(k.eigenvalues) and v is states._FAMILY_V and not x.flags.writeable
    assert calls == {"eigh": 0, "eigvalsh": 0, "formed": 0} and _carried_pair_rebuilds(k)
    assert not states._FAMILY_V.flags.writeable


@pytest.mark.parametrize("m", [0.0, 0.3, 0.2 - 0.4j], ids=["diagonal", "real", "complex"])
def test_one_mode_kernels_form_their_matrix_only_when_read(monkeypatch, m):
    calls = _count_calls(monkeypatch)
    p = onemode.OneModeMoments(0.7, m)
    k = onemode.build_C(p)
    onemode.classify(p)
    onemode.purity_from_wigner(convert(k, "W"))
    convert(convert(convert(k, "W"), "Q"), "C")
    assert calls == {"eigh": 0, "eigvalsh": 0, "formed": 0} and not isinstance(k._matrix, np.ndarray)
    a = p.n + 0.5
    want = np.array([[a, m], [np.conj(m), a]], dtype=complex)
    assert k.matrix.tobytes() == want.tobytes() and k.matrix is k.matrix and not k.matrix.flags.writeable
    assert not k.eig[1].flags.writeable and calls["formed"] == 0


_FAMILY_BUILDS = {
    "mixed_epr": (lambda n, f, g: states.mixed_epr(n, f * (n + 0.5)), lambda n, f, g: (0.0, 0.0, f * (n + 0.5))),
    "anti_epr": (lambda n, f, g: states.anti_epr(n, f * (n + 0.5), g * (n + 0.5)),
                 lambda n, f, g: (0.0, g * (n + 0.5), f * (n + 0.5))),
    "squeezed_epr": (lambda n, f, g: states.squeezed_epr(n, f * (n + 0.5), g * (n + 0.5)),
                     lambda n, f, g: (g * (n + 0.5), 0.0, f * (n + 0.5))),
    "smoothed_epr": (lambda n, f, g: states.smoothed_epr(states.SmoothedEprParam(n)),
                     lambda n, f, g: (0.0, 0.0, -math.sqrt(n * (n + 1.0)))),
}


@pytest.mark.parametrize("family", list(_FAMILY_BUILDS))
@given(n=st.floats(1e-6, 1e6), f=st.floats(-0.45, 0.45), g=st.floats(-0.45, 0.45))
def test_carried_block_determinants_are_those_of_the_formed_matrix(family, n, f, g):
    build, couplings = _FAMILY_BUILDS[family]
    k = build(n, f, g)
    # a I + m1 X + ms Y + mc XY assembled from the moments cast to float64 by numpy
    want = np.asarray(np.array([n + 0.5, *couplings(n, f, g)], dtype=float)[states._SWAP], dtype=complex)
    assert k.matrix.tobytes() == want.tobytes()
    assert np.array(k._dets).tobytes() == linalg.block_dets(k.matrix).tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: states.anti_epr(0.9, 0.5, 0.3), lambda: twomode.build_C2(twomode.TwoModeMoments(0.9, 0.8, 0.1j, 0.05, 0.1 + 0.05j, 0.3 - 0.1j))],
    ids=["family", "from-matrix"],
)
def test_block_dets_are_only_a_two_mode_cs(build):
    # convert passes a kernel's kept (dA, dB, dX) on as C's, so no W, Q or P may keep its own
    k = build()
    want = twomode.classify2(k)
    w = GaussianKernel("W", convert(k, "W").matrix)  # built from its matrix: no determinants carried
    for other in (w, convert(k, "Q"), convert(k, "P"), onemode.build_C(onemode.OneModeMoments(0.7, 0.2))):
        for read in (lambda: other.block_dets, lambda: twomode.classify2(other)):
            with pytest.raises(ValueError, match="two-mode C"):
                read()
    assert twomode.classify2(convert(convert(k, "W"), "C")) == want
    got = twomode.classify2(convert(w, "C"))  # its C takes them from its own formed matrix
    assert got.thermal.g1 == pytest.approx(want.thermal.g1, rel=1e-12) and got == dataclasses.replace(want, thermal=got.thermal)


def test_eig_of_a_kernel_built_from_a_matrix_is_eigh_of_it(rng):
    # eig is formed on each read from the floats and C's eigenvectors; for W, Q and P that is E (E V)
    built = 0
    for k in differential_kernels(rng)[::2]:
        for kind in kernels.KINDS:
            try:
                source = GaussianKernel(kind, convert(k, kind).matrix)
            except (SingularMatrixError, NotPRepresentableError, NotAStateError):
                continue
            built += 1
            x, v = np.linalg.eigh(source.matrix)
            got = source.eig
            assert got[0].tobytes() == x.tobytes() and np.array_equal(got[1], v), kind
            assert not (got[0].flags.writeable or got[1].flags.writeable)
    assert built > 1000


def test_unread_closed_form_kernels_pickle():
    # an unformed matrix is held as its closed form, which pickles as a module-level function and its floats
    for k in (states.anti_epr(0.9, 0.5, 0.3), onemode.build_C(onemode.OneModeMoments(0.7, 0.2 - 0.4j))):
        back = pickle.loads(pickle.dumps(k))
        assert back.matrix.tobytes() == k.matrix.tobytes() and back._dets == k._dets


@pytest.mark.parametrize("n", [1e-6, 1e-3, 0.7, 1e3, 1e6])
@pytest.mark.parametrize("family", list(_FAMILY_BUILDS))
def test_classify2_is_kept_through_a_round_trip(family, n):
    # the round trip returns the C it started from, so the engine reads the same kernel
    k = _FAMILY_BUILDS[family][0](n, 0.3, -0.2)
    back = convert(convert(k, "W"), "C")
    assert back is k and twomode.classify2(back) == twomode.classify2(k)


@pytest.mark.parametrize("n", [1e-6, 1e-2, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("chain", ["WQPC", "PWQC", "QPWC"])
def test_carried_pair_rebuilds_every_converted_matrix(n, chain):
    for root in (states.anti_epr(n, 0.2 * n, 0.1 * n), states.squeezed_epr(n, 0.3 * n, 0.2 * n),
                 onemode.build_C(onemode.OneModeMoments(n, 0.4 * n * np.exp(1j)))):
        # a family kernel's V is exact, so every kind rebuilds within band(max|x|, 1)
        c_scale = np.abs(root.eig[0]).max() if root.modes == 1 else 0.0
        k = root
        for target in chain:
            k = convert(k, target)
            # the chain's C is the root, its matrix the root's own; every other kind forms V diag(x) V^dag
            want = root.matrix if target == "C" else _formed(*k.eig)
            assert np.array_equal(k.matrix, want), (target, n)
            assert _carried_pair_rebuilds(k, 0.0 if target == "C" else c_scale), (target, n)
        assert k is root


_SOURCES = {
    "one-mode": lambda n: onemode.build_C(onemode.OneModeMoments(n, 0.3 * n * np.exp(0.4j))),
    **{family: lambda n, build=build: build(n, 0.3, -0.2) for family, (build, _) in _FAMILY_BUILDS.items()},
    "build_C2": lambda n: scaled_two_mode(n, K_STAR),
    "pure_from_d": lambda n: states.pure_from_d(states.PureStateD(1.0 + n, 0.5, 0.3 * math.sqrt(0.5 * (1.0 + n)))),
}


@pytest.mark.parametrize("n", [1e-3, 0.7, 1e3])
@pytest.mark.parametrize("source", list(_SOURCES))
def test_every_chain_ending_in_c_returns_its_source(source, n):
    k = _SOURCES[source](n)
    verdicts = (twomode.classify2(k), twomode.trace_g2(k)) if k.modes == 2 else None
    try:
        convert(k, "P")
        kinds = "WQP"
    except NotPRepresentableError:
        kinds = "WQ"
    for chain in itertools.chain.from_iterable(itertools.product(kinds, repeat=r) for r in (1, 2, 3)):
        x = k
        for target in chain:
            x = convert(x, target)
        back = convert(x, "C")
        # every W, Q or P converted from k, directly or through others, refers to k itself
        assert back is k and back.matrix.tobytes() == k.matrix.tobytes(), chain
        if verdicts:
            assert (twomode.classify2(back), twomode.trace_g2(back)) == verdicts, chain


@pytest.mark.parametrize("build", [lambda: twomode.build_C2(K_STAR), lambda: states.anti_epr(0.9, 0.5, 0.3)],
                         ids=["K*", "anti_epr"])
def test_partial_transpose_drops_the_carried_c(build):
    # Pi C Pi is not k's C, so the transposed W converts back to the transpose of k, not to k
    k = build()
    back = convert(kernels.partial_transpose(convert(k, "W")), "C")
    assert back is not k and back.matrix.tobytes() == kernels.partial_transpose(k).matrix.tobytes()
    assert not np.array_equal(back.matrix, k.matrix)


def _convert_through_every_kind(build) -> None:
    k = build()
    chain = [k]
    for target in "WQPWC":
        chain.append(convert(chain[-1], target))
    for x in chain + [convert(k, "Q")]:
        x.matrix


def test_a_converted_kernel_makes_no_reference_cycle():
    # a W, Q or P refers to its C, and the C keeps the arrays formed from it, never the kernels
    gc.collect()
    gc.disable()
    try:
        for build in (lambda: onemode.build_C(onemode.OneModeMoments(0.7, 0.2j)), lambda: states.mixed_epr(0.8, 0.6),
                      lambda: twomode.build_C2(K_STAR)):
            _convert_through_every_kind(build)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_oracle_check_forms_q_once(monkeypatch):
    # positivity, the PPT test and the Fock oracle each convert k to Q: the kernels of one C share one formed Q
    k = twomode.build_C2(K_STAR)
    calls = _count_calls(monkeypatch)
    assert twomode.positivity_by_q(k)
    twomode.ppt_separable(k)
    fock.spectrum(fock.from_kernel(k, 16, False))
    assert calls["formed"] == 1
    assert convert(convert(k, "W"), "Q").matrix is convert(k, "Q").matrix and calls["formed"] == 1


@pytest.mark.parametrize(
    "kernel, target, error, says",
    [
        (lambda: GaussianKernel("C", [[1.0, 1.0], [1.0, 1.0]]), "W", SingularMatrixError, "min|eigenvalue|"),
        (lambda: onemode.build_C(onemode.OneModeMoments(1.0, np.sqrt(2.0))), "P", NotPRepresentableError, "C - I/2"),
        # the entries of a W of no operator: refused where the W is built, after its one eigh
        (lambda: [[0.5, 1.0], [1.0, 0.5]], "W", NotAStateError, "negative"),
        # W = 1e308 I would overflow V diag(x) V^dag + its adjoint
        (lambda: GaussianKernel("C", 1e-308 * np.eye(2)), "W", ValueError, "non-finite"),
    ],
    ids=["singular", "not-p-representable", "not-a-state", "overflow"],
)
def test_convert_refuses_at_the_call_before_forming_a_matrix(monkeypatch, kernel, target, error, says):
    k = kernel()
    built = isinstance(k, GaussianKernel)
    calls = _count_calls(monkeypatch)
    with pytest.raises(error, match=says):
        convert(k, target) if built else GaussianKernel(target, k)
    assert calls == {"eigh": 0 if built else 1, "eigvalsh": 0, "formed": 0}


def test_eigenvalue_near_the_bound_forms_a_finite_matrix():
    w = convert(GaussianKernel("C", 2.0 / linalg.MAX_SCALE * np.eye(2)), "W")
    assert np.isfinite(w.matrix).all() and w.matrix[0, 0].real == pytest.approx(0.5 * linalg.MAX_SCALE)


@pytest.mark.parametrize("scale", [0.5, 1e3, 1e40, 1e74, 2.0**249, linalg.MAX_SCALE, 1e80, 1e200, 1e300])
def test_every_kernel_that_exists_gets_finite_verdicts(scale):
    # a kernel's eigenvalues are at most linalg.MAX_SCALE, where the engine's products stay finite;
    # past it the products overflow: C = 1e80 I would get a thermal pair of nan and Tr G^2 = 0
    try:
        k = GaussianKernel("C", scale * np.eye(4))
    except ValueError as exc:
        assert scale > linalg.MAX_SCALE and "an eigenvalue overflows it" in str(exc)
        return
    for k in (k, states.mixed_epr(2.0**248, 2.0**247)):
        thermal = twomode.classify2(k).thermal
        assert math.isfinite(thermal.g1) and math.isfinite(thermal.g2) and twomode.trace_g2(k) > 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: onemode.OneModeMoments(1e80, 0.0),  # refused as build_C refuses its C
        lambda: convert(GaussianKernel("C", 1e-80 * np.eye(2)), "W"),  # W = 1e80 I
    ],
    ids=["one-mode-moments", "w-of-c"],
)
def test_kernel_past_the_verdict_range_is_refused(build):
    with pytest.raises(ValueError, match="an eigenvalue overflows it"):
        build()


def test_carried_c_eigenvalue_below_band_is_not_a_state():
    # W's eigenvalue -1/2 maps to C's eigenvalue -2 where the W is built, so no conversion of it exists
    with pytest.raises(NotAStateError):
        GaussianKernel("W", [[0.5, 1.0], [1.0, 0.5]])


def test_conversion_to_c_runs_no_rule(monkeypatch):
    # every kernel's C eigenvalues were checked where it was made, so C adds no rule
    sources = [GaussianKernel(kind, [[1.0, 0.2], [0.2, 1.0]]) for kind in "WQP"] + [convert(states.mixed_epr(1.0, 0.3), "P")]

    def refuse(*args):
        raise AssertionError("a rule ran")

    for name in ("c_rules", "nonsingular"):
        monkeypatch.setattr(linalg, name, refuse)
    for name in ("_check", "_invertible"):
        monkeypatch.setattr(kernels, name, refuse)
    for k in sources:
        assert convert(k, "C").eigenvalues == k._lam


def _kind_matrix(c, kind, low):
    """The normal-form matrix of ``kind`` whose C has the eigenvectors of the kernel c and its
    eigenvalues shifted so that their least is low: E V diag(1/(lam + s)) V^dag E."""
    x, v = c.eig
    lam = x - x.min() + low
    ev = kernels._E_SIGN[len(v)] * v
    return linalg.hermitian((ev / (lam + kernels._SHIFT[kind])) @ ev.conj().T)


def _rule_refusal(kind, m):
    """The error of the first of C's rules that the matrix m of ``kind`` breaks, or None: with
    lam = 1/x - s of m's eigenvalues x (infinite at x = 0), C + sI nonsingular on |lam + s|,
    1/(lam + s) and lam bounded, C existing and, for P, P-representable."""
    s = kernels._SHIFT[kind]
    lam = [(1.0 / y if y else math.inf) - s for y in np.linalg.eigh(m)[0].tolist()]
    try:
        low = linalg.nonsingular([abs(y + s) for y in lam])
    except SingularMatrixError:
        return SingularMatrixError
    if not (1.0 / low <= linalg.MAX_SCALE and max(map(abs, lam)) <= linalg.MAX_SCALE):
        return ValueError
    exists, p_representable = linalg.c_rules(min(lam), sum(sorted(lam)))
    return None if exists and (kind != "P" or p_representable) else NotPRepresentableError if exists else NotAStateError


def test_construction_decides_every_conversion(rng):
    # W, Q and P whose C has lam_min at -2, 0 and +2 bands (each moved by 0.1 to 1 band) around
    # 0 and 1/2: the constructor refuses exactly where a rule fails, and no accepted kernel is
    # refused as no state by any chain of conversions; an accepted P converts to every kind
    outcomes = collections.Counter()
    for i in range(170):
        c = twomode.build_C2(random_two_mode(rng)) if i % 2 else onemode.build_C(random_one_mode(rng))
        trace = float(np.sum(c.eig[0] - min(c.eigenvalues)))
        for kind in "WQP":
            for center in (0.0, 0.5):
                for bands in (-2, 0, 2):
                    jitter = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)  # lam_min + s is never 0
                    low = center + (bands + jitter) * linalg.band(trace + 2 * c.modes * center, 1)
                    m = _kind_matrix(c, kind, low)
                    want = _rule_refusal(kind, m)
                    outcomes[kind, want] += 1
                    if want is not None:
                        with pytest.raises(want):
                            GaussianKernel(kind, m)
                        continue
                    k = GaussianKernel(kind, m)
                    for chain in ("CWQPC", "WPQCW", "QCPWQ", "PCWQP"):
                        cur = k
                        for target in chain:
                            try:
                                cur = convert(cur, target)
                            except (SingularMatrixError, NotPRepresentableError):
                                assert kind != "P"
                                break
    assert all(outcomes[kind, None] > 100 and outcomes[kind, NotAStateError] > 100 for kind in "WQP"), outcomes
    assert outcomes["W", SingularMatrixError] > 10 and outcomes["P", NotPRepresentableError] > 100, outcomes


def test_p_kernel_not_positive_definite_is_refused():
    with pytest.raises(NotAStateError):
        GaussianKernel("P", [[0.5, 1.0], [1.0, 0.5]])
    with pytest.raises(NotAStateError):  # a matrix in normal form with eigenvalues -1 and 1
        GaussianKernel("P", [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_moment_is_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=1.0, mc=bad))
    with pytest.raises(ValueError, match="non-finite"):  # a family kernel checks its closed-form eigenvalues
        states.mixed_epr(1.0, bad)


def test_carried_pair_is_read_only():
    k = states.mixed_epr(1.0, 0.5)
    with pytest.raises(AttributeError):
        k.eig = (np.ones(4), np.eye(4))
    with pytest.raises(ValueError):
        k.eig[0][0] = -1.0


def test_convert_maps_eigenvalues_bitwise_as_the_array_formula(rng):
    # every kernel of a chain holds its root C's eigenvalues lam0 unchanged, so each step's
    # eigenvalues are numpy's 1/(lam0 + s) on the root's array: no step adds round-off
    mapped = refused = 0
    for k in differential_kernels(rng):
        lam0 = k.eig[0]
        for chain in ("WQPC", "PWQC", "QPWC"):
            cur = k
            for target in chain:
                try:
                    cur = convert(cur, target)
                except (SingularMatrixError, NotPRepresentableError):
                    refused += 1
                    break
                want = lam0 if target == "C" else 1.0 / (lam0 + kernels._SHIFT[target])
                assert np.array_equal(cur.eig[0].view(np.uint64), want.view(np.uint64)), (chain, target)
                assert cur.eigenvalues == tuple(cur.eig[0].tolist()) and all(type(a) is float for a in cur.eigenvalues)
                mapped += 1
    assert mapped > 3000 and refused > 100


def _convert_from_own_eigenvalues(k, target):
    """``convert`` on floats as a function of the source's own eigenvalues, deriving C's from them
    at every call: the target's eigenvalues, or the type of its refusal."""
    try:
        lam = list(k.eigenvalues) if k.kind == "C" else [1.0 / y - kernels._SHIFT[k.kind] for y in k.eigenvalues]
        out = lam
        if target != "C":
            asc, s = sorted(lam), kernels._SHIFT[target]
            if target == "P" and not asc[0] - 0.5 > linalg.band(sum(asc), 1):
                raise NotPRepresentableError
            linalg.nonsingular([abs(y + s) for y in lam])
            out = [1.0 / (y + s) for y in lam]
        if not max(map(abs, out)) <= linalg.MAX_SCALE:
            raise ValueError
        if target == "C" and min(out) < -linalg.band(sum(out), 1):
            raise NotAStateError
        return out
    except (SingularMatrixError, NotPRepresentableError, NotAStateError, ValueError) as exc:
        return type(exc)


def test_kernel_built_from_a_matrix_converts_as_from_its_own_eigenvalues(rng):
    # a W, Q or P built from a matrix derives lam = 1/x - s once; every conversion of it, the
    # first and those reading the cached lam, gives the bits of deriving lam at each call
    built = 0
    for k in differential_kernels(rng)[::3]:
        for kind in ("W", "Q", "P"):
            try:
                source = GaussianKernel(kind, convert(k, kind).matrix)
            except (SingularMatrixError, NotPRepresentableError, NotAStateError):
                continue
            built += 1
            for target in [t for t in ("C", "W", "Q", "P", "C") if t != kind]:
                want = _convert_from_own_eigenvalues(source, target)
                if isinstance(want, type):
                    with pytest.raises(want):
                        convert(source, target)
                else:
                    got = convert(source, target).eigenvalues
                    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64)), (kind, target)
    assert built > 500


def test_reading_modes_and_dim_forms_no_eigenvalues():
    k = convert(convert(states.anti_epr(0.9, 0.5, 0.3), "W"), "Q")
    assert k.modes == 2
    assert k._x is None and k._matrix is None
    assert k.eigenvalues == tuple(1.0 / (y + 0.5) for y in states.anti_epr(0.9, 0.5, 0.3).eigenvalues)


def test_det_is_the_product_of_the_carried_floats(rng):
    for k in differential_kernels(rng):
        for kind in ("C", "W", "Q"):
            try:
                c = convert(k, kind)
            except SingularMatrixError:
                continue
            assert c.det == float(np.prod(c.eig[0])) and type(c.det) is float  # both sequential: the same bits


def _point(k):
    return phasespace.PhasePoint.one_mode(0.1, 0.2) if k.modes == 1 else phasespace.PhasePoint.two_mode(0.1, 0.2, 0.3, 0.4)


class TestOneKernelCheck:
    """``kernels.require`` is the one check of a kernel argument's kind and mode count: every public function that
    takes a kernel refuses each other kind and mode count there, before anything is computed, seen as the last frame
    of the traceback.  A wrong mode count of a kind the function takes raises ``WrongModeCountError``."""

    # every public function that takes a kernel: the kinds and mode counts it takes, and its other arguments
    TAKES = [
        (kernels.convert, "CWQP", (1, 2), lambda k: ("W",)),
        (kernels.partial_transpose, "CWQP", (2,), lambda k: ()),
        (onemode.moments_from_c, "C", (1,), lambda k: ()),
        (onemode.purity_from_wigner, "W", (1,), lambda k: ()),
        (onemode.apply_squeeze, "C", (1, 2), lambda k: (onemode.SqueezeMap(0.3),)),
        *((f, "C", (2,), lambda k: ()) for f in (
            twomode.moments_from_c, twomode.trace_g2, twomode.squared_kernel, twomode.positivity_by_dets,
            twomode.positivity_det_margins, twomode.normal_order_params, twomode.positivity_by_q,
            twomode.ppt_separable, twomode.thermal_pair,
            twomode.pure_marginal_separability, twomode.classify2)),
        (twomode.local_squeeze_to_p_rep, "C", (2,), lambda k: (0.1,)),
        (phasespace.wigner_value, "W", (1, 2), lambda k: (_point(k),)),
        (phasespace.characteristic_value, "C", (1, 2), lambda k: (_point(k),)),
        (phasespace.wigner_grid, "W", (1,), lambda k: (phasespace.GridSpec(-1.0, 1.0, 3),)),
        (fock.from_kernel, "CWQP", (1, 2), lambda k: (4, False)),
        (fock.compare, "CWQP", (1, 2), lambda k: (True, None, 4, False)),
        (cli.kernel_to_json, "CWQP", (1, 2), lambda k: ()),
    ]
    # each kind and mode count of a positive state and of a C with lam_min lam_max < 1/4, which no positive state has
    C_KERNELS = [onemode.build_C(onemode.OneModeMoments(0.8, 0.3)), onemode.build_C(onemode.OneModeMoments(0.0, 0.4)),
                 states.mixed_epr(0.8, 0.3), states.mixed_epr(0.0, 0.4)]

    @pytest.mark.parametrize("f, kinds, modes, args", TAKES, ids=[f"{f.__module__[10:]}.{f.__name__}" for f, *_ in TAKES])
    def test_require_refuses_every_kernel_a_function_does_not_take(self, f, kinds, modes, args):
        for c in self.C_KERNELS:
            for kind in kernels.KINDS:
                try:
                    k = convert(c, kind)
                except NotPRepresentableError:
                    continue
                wrong = kind not in kinds or k.modes not in modes
                try:
                    f(k, *args(k))
                except Exception as e:  # a refusal elsewhere, or a verdict's own error on a kernel f takes
                    assert (traceback.extract_tb(e.__traceback__)[-1].name == "require") == wrong, (kind, k.modes, repr(e))
                else:
                    assert not wrong, (kind, k.modes)

    def test_the_table_names_every_public_function_that_takes_a_kernel(self):
        found = set()
        for module in (cli, fock, kernels, linalg, onemode, phasespace, states, twomode):
            for name, f in vars(module).items():
                params = [*inspect.signature(f).parameters.values()] if inspect.isfunction(f) else []
                if not name.startswith("_") and params and params[0].annotation == "GaussianKernel":
                    found.add(f)
        assert found - {kernels.require} == {f for f, *_ in self.TAKES}

    def test_a_wrong_kind_is_a_value_error_and_a_wrong_mode_count_a_wrong_mode_count_error(self):
        one, two = self.C_KERNELS[0], self.C_KERNELS[2]
        for call, error in [(lambda: kernels.partial_transpose(one), WrongModeCountError),
                            (lambda: onemode.purity_from_wigner(convert(two, "W")), WrongModeCountError),
                            (lambda: onemode.purity_from_wigner(two), ValueError),
                            (lambda: twomode.classify2(convert(two, "W")), ValueError)]:
            with pytest.raises(ValueError) as raised:
                call()
            assert type(raised.value) is error


def _log_uniform_n(rng, count):
    return np.exp(rng.uniform(math.log(1e-6), math.log(1e6), count)).tolist()


class TestNormalForm:
    """Every kernel's matrix is in ``linalg.normal_form`` exactly, whichever way the kernel is made: equal to its
    conjugate transpose (by ==, so a zero's sign does not count) and to T m^T T bit for bit.  The Fock oracle relies on
    it: it reads B = S - Q~ off Q's matrix with no symmetrization, and B's graph as closed under the swap of alpha_i*
    and beta_i."""

    @staticmethod
    def made(rng):
        """(route, kernel) for every way a kernel is made, over n log-uniform in [1e-6, 1e6]."""
        out = []
        for n in _log_uniform_n(rng, 40):
            f, r, phase = rng.uniform(0.0, 0.9), rng.uniform(0.1, 0.9), cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            bound = {family: positive for family, (positive, _) in family_bounds(n, r).items()}
            alpha, beta = n ** rng.uniform(-0.5, 0.5), rng.uniform(0.1, 10.0)
            gamma = rng.uniform(-0.9, 0.9) * math.sqrt(alpha * beta)
            built = {
                "build_C": onemode.build_C(onemode.OneModeMoments(n, f * n * phase)),
                "mixed_epr": states.mixed_epr(n, f * bound["mixed_epr"]),
                "anti_epr": states.anti_epr(n, f * bound["anti_epr"], r * f * bound["anti_epr"]),
                "squeezed_epr": states.squeezed_epr(n, f * bound["squeezed_epr"], r * f * bound["squeezed_epr"]),
                "smoothed_epr": states.smoothed_epr(states.SmoothedEprParam(n)),
                "build_C2": scaled_two_mode(n, random_two_mode(rng)),
                "pure_from_d": states.pure_from_d(states.PureStateD(alpha, beta, gamma)),
                "product_thermal_kernel": twomode.product_thermal_kernel(n / (n + 1.0), -rng.uniform(0.0, 0.9)),
            }
            for name, c in built.items():
                out.append((name, c))
                theta = rng.uniform(-1.0, 1.0)
                out += [(f"apply_squeeze {way}", onemode.apply_squeeze(c, onemode.SqueezeMap(theta, 0.3), way))
                        for way in ("forward", "inverse")]
                if c.modes == 2:
                    out.append(("squared_kernel", twomode.squared_kernel(c)))
                    if twomode.classify2(c).positive:
                        out.append(("local_squeeze_to_p_rep", twomode.local_squeeze_to_p_rep(c, theta)))
                for kind in kernels.KINDS:
                    try:
                        k = convert(c, kind)
                    except NotPRepresentableError:
                        continue
                    out.append((f"convert to {kind}", k))
                    if k.modes == 2:
                        out.append((f"partial_transpose of {kind}", kernels.partial_transpose(k)))
                    m = k.matrix
                    noise = rng.uniform(-1.0, 1.0, m.shape) + 1j * rng.uniform(-1.0, 1.0, m.shape)
                    # neither Hermitian nor T-symmetric, within the check's band(max|M|, 1)
                    out.append((f"GaussianKernel {kind}", GaussianKernel(kind, m + 2 * EPS * np.abs(m).max() * noise)))
        return out

    def test_every_route_makes_a_matrix_in_normal_form(self, rng):
        made = self.made(rng)
        assert len({route for route, _ in made}) == 24 and len(made) > 4000
        for route, k in made:
            m = k.matrix
            swap = np.arange(len(m)) ^ 1
            assert np.array_equal(m, m.conj().T), route
            assert m.tobytes() == np.ascontiguousarray(m.T[np.ix_(swap, swap)]).tobytes(), route
            # so Q~_ij = Q[r_i, r_j ^ 1], r = (0, 2, 1, 3) or (0, 1), which fock.from_kernel reads B from, is symmetric
            q = convert(k, "Q").matrix
            r = np.array([0, 2, 1, 3] if len(q) == 4 else [0, 1])
            q_tilde = q[np.ix_(r, r ^ 1)]
            assert q_tilde.tobytes() == np.ascontiguousarray(q_tilde.T).tobytes(), route


class TestEveryPathAnswers:
    """ROADMAP item 15, first part: every public function that takes a kernel answers on every kernel it takes with n
    in [1e-6, 1e6], in each of the four kinds, or raises the refusal it documents, and then exactly where the engine's
    verdict says so.  Kernels inside a boundary's band are left to the known-defect probes."""

    # each documented refusal: the error and the verdict whose failure raises it
    REFUSALS = {**{f: (NotPositiveError, "positive")
                   for f in (twomode.ppt_separable, twomode.thermal_pair, twomode.local_squeeze_to_p_rep)},
                twomode.pure_marginal_separability: (NotPureError, "pure")}

    @staticmethod
    def kernels(rng):
        """(C kernel, its closed-form verdict): the three EPR families at 0 to 1.2 of their positivity boundary
        coupling (one in eight on it, where they are pure), complex two-mode C, and one-mode C with |m| at 0 to 1.2
        of sqrt(n (n + 1)), each over n log-uniform in [1e-6, 1e6]; a C that is no state is dropped."""
        out = []
        for n in _log_uniform_n(rng, 80):
            r, f = rng.uniform(0.1, 0.9), 1.0 if rng.uniform() < 0.125 else rng.uniform(0.0, 1.2)
            bound = family_bounds(n, r)
            m = rng.uniform(0.0, 1.2) * math.sqrt(n * (n + 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            builds = [lambda: states.mixed_epr(n, f * bound["mixed_epr"][0]),
                      lambda: states.anti_epr(n, f * bound["anti_epr"][0], r * f * bound["anti_epr"][0]),
                      lambda: states.squeezed_epr(n, f * bound["squeezed_epr"][0], r * f * bound["squeezed_epr"][0]),
                      lambda: scaled_two_mode(n, random_two_mode(rng)), lambda: onemode.OneModeMoments(n, m)]
            for build in builds:
                try:
                    c = build()
                except NotAStateError:
                    continue
                one = isinstance(c, onemode.OneModeMoments)
                out.append((onemode.build_C(c), onemode.classify(c)) if one else (c, twomode.classify2(c)))
        return out

    def test_every_path_answers_or_refuses_where_the_engine_says(self):
        refused = collections.Counter()
        for c, verdict in self.kernels(np.random.default_rng(15)):
            forms = {}
            for kind in kernels.KINDS:
                try:
                    forms[kind] = convert(c, kind)
                except NotPRepresentableError:
                    refused["convert to P"] += 1
            assert ("P" in forms) == verdict.p_representable, c.eigenvalues
            for f, kinds, modes, args in TestOneKernelCheck.TAKES:
                for k in (forms[kind] for kind in kinds if kind in forms and c.modes in modes):
                    error, name = self.REFUSALS.get(f, (None, None))
                    try:
                        f(k, *args(k))
                        got = None
                    except Exception as e:
                        got = type(e)
                        refused[f.__name__] += 1
                    want = error if error and not getattr(verdict, name) else None
                    assert got is want, (f.__name__, k.kind, c.eigenvalues)
        assert min(refused.values()) > 0 and len(refused) == 5, refused


class TestEveryPathAnswersAtTheEdges:
    """ROADMAP item 15, the edges: every function of ``TestOneKernelCheck.TAKES``, on every kind of a C at lam_min = 0
    or at the P edge lam_min = 1/2, each moved by 0, +-1/2 and +-2 bands of band(tr C, 1), one-mode or ``mixed_epr``
    with n log-uniform in [1e-6, 1e6], and of the clustered C = a I + m (X + Y + XY) of eigenvalues 1, e, e, e for
    e = 1e-15 ... 1e-6, answers or raises one of the four refusals the package documents for them."""

    REFUSALS = (NotPositiveError, NotPureError, NotPRepresentableError, SingularMatrixError)

    @staticmethod
    def kernels(rng):
        """The edge kernels; a C that is no state is dropped."""
        out = []
        for n in _log_uniform_n(rng, 40):
            builds = {1: lambda m: onemode.build_C(onemode.OneModeMoments(n, m)), 2: lambda m: states.mixed_epr(n, m)}
            for edge in (0.0, 0.5):
                for bands in (-2.0, -0.5, 0.0, 0.5, 2.0):
                    for modes, build in builds.items():
                        # lam_min = n + 1/2 - |m|, and tr C = 2 modes (n + 1/2)
                        low = edge + bands * linalg.band(2 * modes * (n + 0.5), 1)
                        try:
                            out.append(build(n + 0.5 - low))
                        except NotAStateError:
                            continue
        for e in np.logspace(-15, -6, 10).tolist():
            a, m = (1 + 3 * e) / 4, (1 - e) / 4
            out.append(GaussianKernel("C", [[(a, m, m, m)[i ^ j] for j in range(4)] for i in range(4)]))
        return out

    def test_every_path_answers_or_refuses_at_the_edges(self):
        refused, calls = collections.Counter(), 0
        for c in self.kernels(np.random.default_rng(15)):
            for kind in kernels.KINDS:
                try:
                    k = convert(c, kind)
                except self.REFUSALS as e:
                    refused[type(e)] += 1
                    continue
                for f, kinds, modes, args in TestOneKernelCheck.TAKES:
                    if kind in kinds and k.modes in modes:
                        calls += 1
                        try:
                            f(k, *args(k))
                        except self.REFUSALS as e:
                            refused[type(e)] += 1
        assert set(refused) == set(self.REFUSALS) and calls > 10000, (refused, calls)
