"""Identity registry, the derived compound determinant law with the Laplace
expansion as its oracle, and the verification suites that back the CLI."""

import random
from math import comb

import pytest

from adjkit import (GF, GenericContext, factor_left, factor_right,
                    identities, matrix, random_alternating,
                    standard_symplectic)
from adjkit.identities import (REGISTRY, SUITE, compound_det_check,
                               rand_gfp_singular, run_modp_suite,
                               run_symbolic_suite)
from adjkit.matrix import Matrix, index_subsets
from adjkit.specialize import sz_check

DERIVED_CHECKS = ["complement_product", "entries_homogeneous",
                  "exponent_arithmetic", "value_at_identity"]


def complement_reindexing(n: int, m: int):
    """Position map and signs tying D_m to compound(X, n-m).

    D_m[S, T] = sign(S)*sign(T) * compound(X, n-m)[pos(comp S), pos(comp T)]
    with sign(S) = (-1)^(1-based index sum of S).
    """
    subs_c = index_subsets(n, n - m)
    pos_c = {s: i for i, s in enumerate(subs_c)}
    full = set(range(n))
    perm = []
    signs = []
    for s in index_subsets(n, m):
        perm.append(pos_c[tuple(sorted(full - set(s)))])
        signs.append(-1 if (sum(s) + m) % 2 else 1)
    return perm, signs


def test_registry_covers_the_required_identities():
    for name in ("fundamental", "multiplicativity", "conjugation",
                 "sandwich_divisibility", "factor_product", "compound_det"):
        assert name in REGISTRY
        assert REGISTRY[name].modp is not None
    assert REGISTRY["corrupted_adj_det"].expected_failure


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_suite_draws_no_random_numbers(no_random, n):
    report = run_symbolic_suite(n)
    assert report["passed"], report
    assert "seed" not in report
    control = run_symbolic_suite(n, include_corrupted=True)
    assert not control["passed"]
    assert [r["identity"] for r in control["reports"]
            if not r["passed"]] == ["corrupted_adj_det"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_builds_each_compound_report_once(monkeypatch, n):
    # compound_det and complementary_compound read one report per order
    from adjkit.cli import main
    calls = []
    check = identities.compound_det_check

    def counting(ctx, m, **kwargs):
        calls.append(m)
        return check(ctx, m, **kwargs)

    monkeypatch.setattr(identities, "compound_det_check", counting)
    assert main(["verify", "--n", str(n)]) == 0
    assert calls == list(range(1, n + 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_builds_the_generic_pair_product_once(monkeypatch, n):
    # multiplicativity checks it, and conjugation reads its result
    from adjkit.cli import main
    calls = []
    check = identities._adj_reverses_products

    def counting(ctx):
        calls.append(ctx.n)
        return check(ctx)

    monkeypatch.setattr(identities, "_adj_reverses_products", counting)
    assert main(["verify", "--n", str(n)]) == 0
    assert calls == [n]


def test_symbolic_suite_detects_corruption():
    report = run_symbolic_suite(3, include_corrupted=True)
    assert not report["passed"]
    bad = [r for r in report["reports"] if r["identity"] == "corrupted_adj_det"]
    assert bad and not bad[0]["passed"] and bad[0]["expected_failure"]


def test_modp_suite_small():
    report = run_modp_suite(5, 31, trials=10, seed=1)
    assert report["passed"], report


def test_modp_suite_odd_n_skips_factor():
    report = run_modp_suite(5, 31, trials=5, seed=2)
    names = [r["identity"] for r in report["reports"]]
    assert "factor_product" not in names


def test_compound_routes(ctx4, no_random):
    # the suite keys its checks by order alone: every order has one route
    rep = REGISTRY["compound_det"].symbolic(ctx4)
    assert list(rep["checks"]) == ["m_1", "m_2", "m_3", "m_4"]
    assert [r["route"] for r in rep["reports"]] == ["derived"] * 4
    assert rep["passed"]


@pytest.fixture(scope="module")
def ctx6():
    return GenericContext(6)


@pytest.mark.parametrize(
    "n,m,p",
    [(n, m, None) for n in range(1, 5) for m in range(1, n + 1)]
    + [(4, m, p) for p in (2, 3) for m in range(1, 5)]
    + [(5, 3, None), (6, 2, None), (6, 3, None), (6, 4, None), (6, 5, None),
       (5, 3, 2)])
def test_derived_route(request, no_random, n, m, p):
    if p is None and n > 1:
        ctx = request.getfixturevalue(f"ctx{n}")
    else:
        ctx = GenericContext(n, p=p)
    rep = compound_det_check(ctx, m)
    assert rep["route"] == "derived"
    assert rep["theorem"] == "det(X) is irreducible"
    assert list(rep["checks"]) == DERIVED_CHECKS
    assert rep["passed"], rep


def _expansion_matches_the_law(ctx, m):
    # the Laplace expansion of det(C) against det(X)^C(n-1, m-1): an oracle
    # independent of the derivation, which must pass on the same (n, m)
    e = comb(ctx.n - 1, m - 1)
    assert ctx.X.compound(m).det_laplace() == ctx.det_power(e), (ctx.n, m)
    assert compound_det_check(ctx, m)["passed"], (ctx.n, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expansion_oracle_agrees_with_the_derived_route(n):
    ctx = GenericContext(n)
    for m in range(1, n + 1):
        _expansion_matches_the_law(ctx, m)


@pytest.mark.stress
@pytest.mark.parametrize("m", [2, 4])
def test_expansion_oracle_n5(ctx5, m):
    # det(X)^4 has 2,224,955 terms: about 60 s and 1.2 GB at m = 2
    _expansion_matches_the_law(ctx5, m)


def _swap_first_rows(a: Matrix) -> Matrix:
    rows = a.to_rows()
    rows[0], rows[1] = rows[1], rows[0]
    return Matrix.from_rows(a.domain, rows)


def _planted_complement(monkeypatch, plant):
    complementary = Matrix.complementary_compound

    def planted(self, m):
        return plant(complementary(self, m))

    monkeypatch.setattr(Matrix, "complementary_compound", planted)


def test_negated_complement_entry_fails_the_product(ctx4, ctx5,
                                                   monkeypatch):
    def negate_one(d):
        d.entries[7] = -d.entries[7]
        return d

    _planted_complement(monkeypatch, negate_one)
    for ctx, m in ((ctx4, 2), (ctx5, 3)):
        rep = compound_det_check(ctx, m)
        assert not rep["passed"]
        assert not rep["checks"]["complement_product"]


def test_entry_of_higher_degree_fails_homogeneity(ctx4, ctx5):
    for ctx, m in ((ctx4, 2), (ctx5, 3)):
        cmp_m = ctx.X.compound(m)
        cmp_m.entries[4] = cmp_m.entries[4] * ctx.ring.var("x_1_1")
        rep = compound_det_check(ctx, m, cmp_m=cmp_m)
        assert not rep["passed"]
        assert not rep["checks"]["entries_homogeneous"]


def test_wrong_value_at_identity_fails(ctx4, ctx5, monkeypatch):
    # the same row swap in C and D keeps C * D^T = det(X) * I and every
    # degree, but flips the sign of det(C): only the value at X = I sees it
    _planted_complement(monkeypatch, _swap_first_rows)
    for ctx, m in ((ctx4, 2), (ctx5, 3)):
        rep = compound_det_check(ctx, m, cmp_m=_swap_first_rows(
            ctx.X.compound(m)))
        assert not rep["passed"]
        assert rep["checks"] == {"complement_product": True,
                                 "entries_homogeneous": True,
                                 "exponent_arithmetic": True,
                                 "value_at_identity": False}


def test_sandwich_report_names_its_route(ctx3):
    for ctx in (GenericContext(1), ctx3):
        rep = REGISTRY["sandwich_divisibility"].symbolic(ctx)
        assert rep["route"] == "derived"
        assert rep["theorem"] == ("Jacobi's theorem on the minors of the "
                                  "adjugate")
        assert rep["checks"] == {"compound_of_adjugate": True}


def test_negated_complement_entry_fails_the_sandwich(ctx3, ctx4, ctx5,
                                                    monkeypatch):
    def negate_one(d):
        d.entries[1] = -d.entries[1]
        return d

    _planted_complement(monkeypatch, negate_one)
    for ctx in (ctx3, ctx4, ctx5):
        rep = REGISTRY["sandwich_divisibility"].symbolic(ctx)
        assert not rep["passed"], ctx.n
        assert rep["checks"] == {"compound_of_adjugate": False}


def test_untransposed_adjugate_fails_multiplicativity_and_conjugation(
        monkeypatch):
    # patched after the contexts are built, whose X*adj(X) check would
    # fail first; fresh contexts, so no result is read from a memo
    contexts = [GenericContext(n) for n in (2, 3, 4) for _ in range(2)]
    monkeypatch.setattr(Matrix, "adjugate",
                        lambda self: self.complementary_compound(1))
    for mult, conj in zip(contexts[::2], contexts[1::2]):
        rep = REGISTRY["multiplicativity"].symbolic(mult)
        assert rep["checks"] == {"adj_reverses_products": False}
        assert not rep["passed"]
        rep = REGISTRY["conjugation"].symbolic(conj)
        assert rep["route"] == "derived"
        assert rep["checks"] == {"adj_reverses_products": False,
                                 "fundamental_products": True}
        assert not rep["passed"]


@pytest.mark.stress
def test_stress_n6_jacobi_and_generic_multiplicativity(ctx6, no_random):
    # on the compiled kernels of a 2-core host, one fresh process each:
    # 2.5-2.7 s at a 404 MB peak and 5.8 s at 874 MB
    for name in ("sandwich_divisibility", "multiplicativity"):
        assert REGISTRY[name].symbolic(ctx6)["passed"], name


def test_complement_reindexing_is_a_signed_permutation():
    for n, m in ((4, 2), (5, 2), (5, 3)):
        perm, signs = complement_reindexing(n, m)
        assert sorted(perm) == list(range(len(index_subsets(n, m))))
        assert set(signs) <= {1, -1}


def test_reindexing_ties_complement_to_compound(ctx4):
    # D_m = diag(s) P cmp_{n-m} P^T diag(s) entrywise
    for m in (1, 2, 3):
        d = ctx4.X.complementary_compound(m)
        cmp_c = ctx4.X.compound(4 - m)
        perm, signs = complement_reindexing(4, m)
        for i in range(d.rows):
            for j in range(d.cols):
                expect = cmp_c[perm[i], perm[j]]
                if signs[i] * signs[j] < 0:
                    expect = -expect
                assert d[i, j] == expect


def test_singular_sampler_has_corank_one():
    rng = random.Random(3)
    for _ in range(5):
        m = rand_gfp_singular(rng, 6, 31)
        assert m.rank() == 5


def test_suite_is_deterministic():
    a = run_symbolic_suite(3)
    b = run_symbolic_suite(3)
    assert a == b


@pytest.mark.parametrize("seed", (1, 2))
def test_modp_suite_runs_every_field_method(monkeypatch, seed):
    # the traced benchmark run expects a span from each of these on its
    # mod-p workload; a suite that bypassed one would fail only there
    names = ("_det_gauss", "inverse", "rank", "adjugate")
    calls = {}
    for name in names:
        method = getattr(Matrix, name)

        def counting(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Matrix, name, counting)
    report = run_modp_suite(4, 101, 1, seed, include_corrupted=True)
    assert not report["passed"]     # the corrupted control fails
    assert all(rep["passed"] != rep["expected_failure"]
               for rep in report["reports"])
    # a method enters the counts on its first call
    assert set(calls) == set(names), calls


def test_modp_factor_product_reduces_three_times(monkeypatch):
    # J^-1, the invertibility test of the draw, which also gives det(B),
    # and the adjugate
    calls = []
    reduce = matrix._row_reduce

    def counting(*args, **kwargs):
        calls.append(args[1])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(matrix, "_row_reduce", counting)
    assert REGISTRY["factor_product"].modp(10, 2_147_483_647, random.Random(3))
    assert calls == [10, 10, 10]


@pytest.mark.parametrize("p", [3, 5])
def test_modp_negative_control_fails_every_trial(p):
    # det(B) is drawn outside {0, 1}, where det^(n-1) * (det - 1) != 0
    rep = sz_check("corrupted_adj_det", 3, p, trials=20, seed=1)
    assert [f["trial"] for f in rep["failures"]] == list(range(20))


# the symbolic objects against their images over GF(p), which come from the
# field elimination

def gf_image(m, point, p):
    """The matrix of polynomials m at the int point, over GF(p)."""
    return m.map_entries(lambda f: f.evaluate(point) % p, GF(p))


@pytest.mark.parametrize("p", [2, 3, 2_147_483_647])
def test_symbolic_objects_match_their_gf_p_images(p, ctx2, ctx3, ctx4, ctx5):
    rng = random.Random(f"gf-images-{p}")
    for ctx in (ctx2, ctx3, ctx4, ctx5):
        names = [f"x_{i}_{j}" for i in range(1, ctx.n + 1)
                 for j in range(1, ctx.n + 1)]
        for _ in range(3):
            point = {name: rng.randrange(-p, 2 * p) for name in names}
            b = gf_image(ctx.X, point, p)
            assert ctx.detX.evaluate(point) % p == b.det()
            assert gf_image(ctx.adjX, point, p) == b.adjugate()
    # factor_right's Y and factor_left's Z at n = 4, against the
    # construction of the factor_product mod-p trial, at points where B is
    # invertible mod p
    names = [f"x_{i}_{j}" for i in range(1, 5) for j in range(1, 5)]
    alts = [standard_symplectic(4), random_alternating(4, 5),
            random_alternating(4, 7, bound=3)]
    seen = 0
    for alt in alts:
        right, left = factor_right(ctx4, alt), factor_left(ctx4, alt)
        a_p = alt.matrix.map_entries(GF(p).coerce, GF(p))
        a_inv = a_p.inverse()
        for _ in range(3):
            point = {name: rng.randrange(p) for name in names}
            b = gf_image(ctx4.X, point, p)
            det_b = b.det()
            if not det_b:
                continue
            seen += 1
            adj = b.adjugate()
            y = identities._modp_quotient_factor(adj, det_b, a_inv)
            z = identities._modp_quotient_factor(adj.transpose(), det_b,
                                                 a_inv)
            assert gf_image(right.Y, point, p) == y
            assert gf_image(right.Z, point, p) == b.transpose() * a_p
            assert gf_image(left.Y, point, p) == a_p * b.transpose()
            assert gf_image(left.Z, point, p) == z
            assert y * (b.transpose() * a_p) == adj
    assert seen
