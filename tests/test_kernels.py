import math

import numpy as np
import pytest
from hypothesis import given

from conftest import assert_close, differential_kernels, one_mode_moments, two_mode_kernels
from gausspair import kernels, linalg, onemode, states, twomode
from gausspair.errors import NotAStateError, NotPRepresentableError, SingularMatrixError
from gausspair.kernels import GaussianKernel, convert


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
    a kind other than C by the error of V, eps |C| / gap, that x = 1/(lam + s)
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
    k = states.anti_epr(0.9, 0.5, 0.3)
    assert twomode.classify2(k).p_representable
    chain = [k]
    for target in "WQPC":
        chain.append(convert(chain[-1], target))
    # the built C holds its assembled matrix: none is formed until the chain's last kernel is read
    assert calls == {"eigh": 1, "eigvalsh": 0, "formed": 0}
    back = chain[-1].matrix
    assert calls == {"eigh": 1, "eigvalsh": 0, "formed": 1}
    assert chain[-1].matrix is back and not back.flags.writeable
    assert all(_carried_pair_rebuilds(c) for c in chain)


@pytest.mark.parametrize("n", [1e-6, 1e-2, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("chain", ["WQPC", "PWQC", "QPWC"])
def test_carried_pair_rebuilds_every_converted_matrix(n, chain):
    for k in (states.anti_epr(n, 0.2 * n, 0.1 * n), states.squeezed_epr(n, 0.3 * n, 0.2 * n),
              onemode.build_C(onemode.OneModeMoments(n, 0.4 * n * np.exp(1j)))):
        c_scale = np.abs(k.eig[0]).max()
        for target in chain:
            k = convert(k, target)
            assert np.array_equal(k.matrix, _formed(*k.eig)), (target, n)
            assert _carried_pair_rebuilds(k, 0.0 if target == "C" else c_scale), (target, n)


@pytest.mark.parametrize(
    "kernel, target, error, says",
    [
        (lambda: GaussianKernel("C", [[1.0, 1.0], [1.0, 1.0]]), "W", SingularMatrixError, "min|eigenvalue|"),
        (lambda: onemode.build_C(onemode.OneModeMoments(1.0, np.sqrt(2.0))), "P", NotPRepresentableError, "C - I/2"),
        (lambda: GaussianKernel("W", [[0.5, 1.0], [1.0, 0.5]]), "C", NotAStateError, "negative"),
        # W = 1e308 I would overflow V diag(x) V^dag + its adjoint
        (lambda: GaussianKernel("C", 1e-308 * np.eye(2)), "W", ValueError, "non-finite"),
    ],
    ids=["singular", "not-p-representable", "not-a-state", "overflow"],
)
def test_convert_refuses_at_the_call_before_forming_a_matrix(monkeypatch, kernel, target, error, says):
    k = kernel()
    calls = _count_calls(monkeypatch)
    with pytest.raises(error, match=says):
        convert(k, target)
    assert calls == {"eigh": 0, "eigvalsh": 0, "formed": 0}


def test_eigenvalue_near_the_bound_forms_a_finite_matrix():
    w = convert(GaussianKernel("C", 2.0 / kernels._ENTRY_BOUND * np.eye(2)), "W")
    assert np.isfinite(w.matrix).all() and w.matrix[0, 0].real == pytest.approx(0.5 * kernels._ENTRY_BOUND)


def test_carried_c_eigenvalue_below_band_is_not_a_state():
    # W's eigenvalue -1/2 maps to C's eigenvalue -2 with no new eigensolve
    w = GaussianKernel("W", [[0.5, 1.0], [1.0, 0.5]])
    with pytest.raises(NotAStateError):
        convert(w, "C")


def test_p_kernel_not_positive_definite_is_refused():
    with pytest.raises(NotAStateError):
        GaussianKernel("P", [[0.5, 1.0], [1.0, 0.5]])
    c = GaussianKernel("C", np.diag([1.5, 1.5]))
    with pytest.raises(NotAStateError):
        GaussianKernel._normal("P", c.matrix, (np.array([1.0, -1.0]), c.eig[1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_moment_is_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=1.0, mc=bad))


def test_carried_pair_is_read_only():
    k = states.mixed_epr(1.0, 0.5)
    with pytest.raises(AttributeError):
        k.eig = (np.ones(4), np.eye(4))
    with pytest.raises(ValueError):
        k.eig[0][0] = -1.0


def test_convert_maps_eigenvalues_bitwise_as_the_array_formula(rng):
    # convert maps Python floats; numpy's 1/(lam + s) on the carried array must give the same bits
    shift = {"C": None, "W": 0.0, "Q": 0.5, "P": -0.5}
    mapped = refused = 0
    for k in differential_kernels(rng):
        for chain in ("WQPC", "PWQC", "QPWC"):
            cur = k
            for target in chain:
                x = cur.eig[0]
                lam = x if cur.kind == "C" else 1.0 / x - shift[cur.kind]
                try:
                    out = convert(cur, target)
                except (SingularMatrixError, NotPRepresentableError):
                    refused += 1
                    break
                want = lam if target == "C" else 1.0 / (lam + shift[target])
                assert np.array_equal(out.eig[0].view(np.uint64), want.view(np.uint64)), (cur.kind, target)
                assert out.eigenvalues == tuple(out.eig[0].tolist()) and all(type(a) is float for a in out.eigenvalues)
                mapped += 1
                cur = out
    assert mapped > 3000 and refused > 100


def test_det_is_the_product_of_the_carried_floats(rng):
    for k in differential_kernels(rng):
        for kind in ("C", "W", "Q"):
            try:
                c = convert(k, kind)
            except SingularMatrixError:
                continue
            assert c.det == float(np.prod(c.eig[0])) and type(c.det) is float  # both sequential: the same bits
