import numpy as np
import pytest

from helpers import (
    alpha_vector,
    alpha_vector_oracle,
    expand_oracle,
    int_to_bits,
    pauli_projection,
    random_circuit,
    random_clifford_dense,
    standard_gate,
)
from semiclifford import gf2
from semiclifford.circuits import circuit_to_dense, circuit_to_rep
from semiclifford.clifford import CliffordRep
from semiclifford.dense import close_up_to_phase, extract_rep
from semiclifford.expansion import expand, rep_to_dense


def test_alpha_identity_c_matrix():
    # C = I: the kernel is everything, the form vanishes, alpha = 0
    for hbits in (0, 3, 5):
        rep = CliffordRep(gf2.ident(4), int_to_bits(hbits, 4))
        assert not alpha_vector(rep).any()


def test_alpha_trivial_kernel_gauge():
    # a rep whose C fixes only 0 puts no constraint on alpha
    rep = circuit_to_rep(random_circuit(2, 1, np.random.default_rng(1), names=("H",)))
    found = None
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = circuit_to_rep(random_circuit(2, 12, rng))
        ic = (gf2.ident(4) ^ r.c) & 1
        if gf2.kernel_basis(ic).shape[0] == 0:
            found = r
            break
    assert found is not None
    assert not alpha_vector(found).any()


def test_alpha_property_on_whole_kernel(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            rep = circuit_to_rep(random_circuit(n, 12, rng))
            alpha = alpha_vector(rep)
            low = rep.lows_matrix
            kernel = gf2.kernel_basis((gf2.ident(2 * n) ^ rep.c) & 1)
            for bits in range(1 << kernel.shape[0]):
                b = np.zeros(2 * n, dtype=np.uint8)
                for k in range(kernel.shape[0]):
                    if (bits >> k) & 1:
                        b ^= kernel[k]
                assert gf2.dot(alpha, b) == gf2.quad_form(low, b)


def test_d_orthogonal_to_fixed_space(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            rep = circuit_to_rep(random_circuit(n, 12, rng))
            kernel = gf2.kernel_basis((gf2.ident(2 * n) ^ rep.c) & 1)
            for b in kernel:
                assert gf2.dot(rep.d, b) == 0


def test_expand_identity():
    res = expand(CliffordRep.identity(1))
    assert res.support.shape == (1, 2)
    assert not res.support.any()
    assert np.allclose(res.values, [1.0])


def test_expand_sigma_z():
    rep = CliffordRep(gf2.ident(2), np.array([0, 1], dtype=np.uint8))
    res = expand(rep)
    assert res.s == 2
    assert res.support.tolist() == [[1, 0]]
    assert abs(abs(res.values[0]) - 1) < 1e-12


def test_expand_hadamard():
    res = expand(standard_gate("H", (0,), 1))
    assert res.support.shape[0] == 2
    assert abs(res.magnitude - 2 ** -0.5) < 1e-12
    assert all(abs(abs(v) - 2 ** -0.5) < 1e-12 for v in res.values)


def test_anchor_gauge_is_real_positive(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        rep = circuit_to_rep(random_circuit(n, 10, rng))
        res = expand(rep)
        anchor = res.coeffs[tuple(int(b) for b in res.a0)]
        assert anchor.imag == pytest.approx(0, abs=1e-12)
        assert anchor.real > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expansion_matches_trace_projection(n, rng):
    for _ in range(25):
        desc = random_circuit(n, 12, rng)
        u = circuit_to_dense(desc)
        rep = extract_rep(u)
        res = expand(rep)
        proj = pauli_projection(u, n)
        assert set(res.coeffs) == set(proj)
        assert res.support.shape[0] == 1 << (2 * n - res.s)
        for val in proj.values():
            assert abs(abs(val) - res.magnitude) < 1e-9
        ratios = [proj[k] / res.coeffs[k] for k in proj]
        assert all(abs(r - ratios[0]) < 1e-8 for r in ratios)
        assert abs(abs(ratios[0]) - 1) < 1e-9


def test_support_is_coset_of_image(rng):
    for _ in range(15):
        n = int(rng.integers(1, 4))
        rep = circuit_to_rep(random_circuit(n, 10, rng))
        res = expand(rep)
        ic = (gf2.ident(2 * n) ^ rep.c) & 1
        for pt in res.support:
            diff = pt ^ res.a0
            assert gf2.solve(ic, diff) is not None


def test_rep_to_dense_identity_and_s_gate():
    assert np.allclose(rep_to_dense(CliffordRep.identity(1)), np.eye(2))
    ds = rep_to_dense(standard_gate("S", (0,), 1))
    assert close_up_to_phase(ds, np.diag([1, 1j]))


def test_rep_to_dense_lagrangian_completions():
    for lag in gf2.enumerate_lagrangians(2)[:6]:
        c = gf2.symplectic_complete(lag)
        rep = CliffordRep(c, np.zeros(4, dtype=np.uint8))
        u = rep_to_dense(rep)
        assert extract_rep(u) == rep


def test_rep_to_dense_round_trip_random(rng):
    for n in (1, 2, 3):
        for _ in range(8):
            desc = random_circuit(n, 12, rng)
            u = circuit_to_dense(desc)
            rep = extract_rep(u)
            dd = rep_to_dense(rep)
            assert extract_rep(dd) == rep
            assert close_up_to_phase(dd, u)


def test_rep_to_dense_cap():
    with pytest.raises(ValueError, match="n=8 exceeds the hierarchy cap 7"):
        rep_to_dense(CliffordRep.identity(8))


def _assert_matches_scalar_oracle(rep):
    res = expand(rep)
    a0, gens, s, support, values = expand_oracle(rep)
    assert res.s == s
    pairs = [(alpha_vector(rep), alpha_vector_oracle(rep)), (res.a0, a0), (res.image_basis, gens)]
    pairs += [(res.support, support), (res.values, values)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        # values bit for bit, the signs of their zero parts included
        assert got.tobytes() == want.tobytes()


def test_expand_matches_scalar_oracle_on_lagrangian_cliffords():
    for n in (1, 2, 3):
        for lag in gf2.enumerate_lagrangians(n):
            c = gf2.symplectic_complete(lag)
            _assert_matches_scalar_oracle(CliffordRep(c, np.zeros(2 * n, dtype=np.uint8)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_expand_matches_scalar_oracle_on_random_reps(n, rng):
    # the identity (s = 2n) and random reps, s = 0 among them, all with h != 0
    reps = [CliffordRep(gf2.ident(2 * n), np.ones(2 * n, dtype=np.uint8))]
    dims = []
    for _ in range(200):
        rep = circuit_to_rep(random_circuit(n, 6 * n, rng))
        dims.append(gf2.kernel_basis(gf2.ident(2 * n) ^ rep.c).shape[0])
        h = rng.integers(0, 2, 2 * n).astype(np.uint8)
        h[rng.integers(2 * n)] = 1
        reps.append(CliffordRep(rep.c, h))
        if 0 in dims and len(set(dims)) >= min(3, 2 * n):
            break
    assert 0 in dims and len(set(dims)) >= min(3, 2 * n)
    for rep in reps:
        _assert_matches_scalar_oracle(rep)


def test_expand_eliminates_i_plus_c_once(monkeypatch, rng):
    # the kernel, alpha's system and the image pivots share one rref of I + C
    rep = circuit_to_rep(random_circuit(3, 18, rng))
    ic = gf2.ident(6) ^ rep.c
    real, seen = gf2.rref, []

    def recording_rref(m, *args, **kwargs):
        seen.append(np.array_equal(m, ic))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(gf2, "rref", recording_rref)
    expand(rep)
    alpha_vector(rep)
    assert sum(seen) == 2
