"""Release acceptance suite: one test per acceptance criterion.

Each test prints exactly one line, `PASS criterion-N: ...` or
`FAIL criterion-N: ...`, and asserts the criterion as stated.  Two
criteria (6 and 7) assert universal claims that the implementation
refutes with concrete counterexamples; those tests fail, and their
detail lines identify the witnesses.  The counterexamples themselves are
pinned as passing regression tests in test_skew.py.
"""

import itertools
import random
import time

import numpy as np

from ternring import (
    ELEMENTS,
    EXPECTED_FLAGS,
    IDEMPOTENTS,
    ModulusSign,
    ONE,
    RCode,
    THETA_FIXED_UNITS,
    TernaryPolyCode,
    UNITS,
    V,
    ZERO,
    constacyclic_shift,
    count_skew_cyclic,
    cyclic_shift,
    decompose_generator,
    divisors_of_modulus,
    format_ring_poly,
    from_gray,
    gray_shift,
    gray_vector,
    hermitian_inner_product,
    ideals,
    monic_right_divisors,
    one_generator_sqc,
    parse_element,
    ring_inner_product,
    scalar,
    section_shift,
    skew_constacyclic_section_shift,
    skew_constacyclic_shift,
    skew_cyclic_code,
    skew_cyclic_shift,
    skew_right_divmod,
    ungray_vector,
    vector_to_polys,
    verify_reference_table,
)
from ternring import gf3linalg
from ternring.rcodes import GrayModule
from ternring.skew import SkewPoly

from test_skew import (
    _hermitian_form_matrices,
    _nabla,
    _span,
    _window_form_matrices,
    _zero_masks,
    random_skew,
    random_unit_lead,
)

PLUS, MINUS = ModulusSign.PLUS, ModulusSign.MINUS


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_quantum_reference_table():
    expected = [
        (18, 6, 2),
        (36, 18, 2),
        (81, 45, 2),
        (90, 66, 2),
        (9, 3, 2),
        (30, 6, 4),
        (36, 24, 2),
    ]
    t0 = time.perf_counter()
    rows = verify_reference_table()
    elapsed = time.perf_counter() - t0
    derived = [r.params.as_tuple() for r in rows[:7] if r.params is not None]
    flagged = rows[7]
    ok = (
        derived == expected
        and [r.status for r in rows] == ["ok"] * 7 + ["flag"]
        and flagged.flag_id == "cyclic-n8-dual-containment"
        and flagged.params is None
        and EXPECTED_FLAGS == ("cyclic-n8-dual-containment",)
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"7 reference constructions rebuilt with exact parameters "
        f"{', '.join(f'[[{a},{b},{c}]]' for a, b, c in derived)}; the n=8 "
        f"x^2+1 triple is rejected as not dual-containing (expected flag); "
        f"{elapsed:.2f}s of a 60s budget",
    )


def test_criterion_2_reference_cardinalities_and_dual():
    length3 = decompose_generator(
        [parse_element(t) for t in ("1", "1+2v+2v^2", "2v+2v^2")],
        3,
        MINUS,
    )
    length10 = decompose_generator(
        [parse_element(t) for t in ("1", "2v", "1+2v^2", "v", "v^2")],
        10,
        MINUS,
    )
    dual_str = format_ring_poly(length10.dual().combined_generator())
    want_dual = "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1"
    ok = (
        length3.cardinality_log3 == 5
        and length10.cardinality_log3 == 20
        and dual_str == want_dual
    )
    _report(
        2,
        ok,
        f"length-3 code has exactly 3^{length3.cardinality_log3} words, "
        f"length-10 code exactly 3^{length10.cardinality_log3}; the "
        f"monic-normalized dual generator is {dual_str}",
    )


def test_criterion_3_gray_map_property_suite():
    rng = random.Random(20260815)
    trials_per_family = 1300
    checked = failures = 0

    def rand_vec(n):
        return tuple(rng.choice(ELEMENTS) for _ in range(n))

    def vec_add(u, w):
        return tuple(a + b for a, b in zip(u, w))

    def vec_scale(t, u):
        return tuple(scalar(t) * a for a in u)

    def rand_sl():
        s = rng.choice((1, 2, 3, 4))
        l = rng.choice((1, 2, 3, 4))
        return s, l

    def linearity():
        n = rng.randrange(1, 17)
        u, w = rand_vec(n), rand_vec(n)
        t = rng.randrange(3)
        return np.array_equal(
            gray_vector(vec_add(u, w)), (gray_vector(u) + gray_vector(w)) % 3
        ) and np.array_equal(
            gray_vector(vec_scale(t, u)), (t * gray_vector(u)) % 3
        )

    def bijectivity():
        n = rng.randrange(1, 17)
        v = rand_vec(n)
        arr = np.array([rng.randrange(3) for _ in range(3 * n)], dtype=np.int8)
        return ungray_vector(gray_vector(v)) == v and np.array_equal(
            gray_vector(ungray_vector(arr)), arr
        )

    def isometry():
        v = rand_vec(rng.randrange(1, 17))
        return sum(e.lee_weight() for e in v) == int(
            np.count_nonzero(gray_vector(v))
        )

    def cyclic_diagram():
        v = rand_vec(rng.randrange(1, 17))
        return np.array_equal(
            gray_vector(cyclic_shift(v)),
            gray_shift(len(v))(gray_vector(v)),
        )

    def section_diagram():
        s, l = rand_sl()
        v = rand_vec(s * l)
        return np.array_equal(
            gray_vector(section_shift(v, s, l)),
            gray_shift(s * l, l=l)(gray_vector(v)),
        )

    def twisted_cyclic_diagram():
        v = rand_vec(rng.randrange(1, 17))
        return np.array_equal(
            gray_vector(skew_cyclic_shift(v)),
            gray_shift(len(v), twist=True)(gray_vector(v)),
        )

    def twisted_constacyclic_diagram():
        lam = rng.choice(UNITS)
        v = rand_vec(rng.randrange(1, 17))
        return np.array_equal(
            gray_vector(skew_constacyclic_shift(v, lam)),
            gray_shift(len(v), lam, twist=True)(gray_vector(v)),
        )

    def twisted_section_diagram():
        lam = rng.choice(UNITS)
        s, l = rand_sl()
        v = rand_vec(s * l)
        return np.array_equal(
            gray_vector(skew_constacyclic_section_shift(v, lam, l)),
            gray_shift(s * l, lam, l, twist=True)(gray_vector(v)),
        )

    families = (
        linearity,
        bijectivity,
        isometry,
        cyclic_diagram,
        section_diagram,
        twisted_cyclic_diagram,
        twisted_constacyclic_diagram,
        twisted_section_diagram,
    )
    for family in families:
        for _ in range(trials_per_family):
            checked += 1
            failures += not family()
    ok = checked >= 10_000 and failures == 0
    _report(
        3,
        ok,
        f"{checked} random vectors of length <= 16 across "
        f"{len(families)} property families (linearity, bijectivity, "
        f"weight isometry, and five shift diagrams): {failures} failures",
    )


def test_criterion_4_ring_exhaustives():
    t0 = time.perf_counter()
    ok = True
    # Gray map is a bijection onto {0,1,2}^3 and a ring isomorphism.
    grays = {e.gray for e in ELEMENTS}
    ok &= len(ELEMENTS) == 27 and len(grays) == 27
    ok &= all(from_gray(e.gray) is e for e in ELEMENTS)
    for x in ELEMENTS:
        gx = x.gray
        ok &= x ** 3 == x
        ok &= x.lee_weight() == sum(1 for t in gx if t)
        ok &= x.is_unit() == all(gx)
        ok &= x.theta().theta() is x
        ok &= x.theta().gray == (gx[0], gx[2], gx[1])
        ok &= x == sum(
            (scalar(t) * e for t, e in zip(gx, IDEMPOTENTS)), ZERO
        )
        for y in ELEMENTS:
            gy = y.gray
            ok &= (x + y).gray == tuple((a + b) % 3 for a, b in zip(gx, gy))
            ok &= (x * y).gray == tuple((a * b) % 3 for a, b in zip(gx, gy))
            ok &= (x * y).theta() == x.theta() * y.theta()
    ok &= len(UNITS) == 8 and all(u * u is ONE for u in UNITS)
    ok &= V ** 3 == V
    e1, e2, e3 = IDEMPOTENTS
    ok &= all(e * e is e for e in IDEMPOTENTS) and e1 + e2 + e3 is ONE
    ok &= e1 * e2 is ZERO and e1 * e3 is ZERO and e2 * e3 is ZERO
    # The 8 ideals are exactly the Gray-support-mask sets.
    by_mask = {
        frozenset(
            e
            for e in ELEMENTS
            if all(t == 0 for i, t in enumerate(e.gray) if i not in mask)
        )
        for r in range(4)
        for mask in itertools.combinations(range(3), r)
    }
    ok &= len(ideals()) == 8 and set(ideals()) == by_mask
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(
        4,
        ok,
        f"all 27-element identities verified exhaustively (cube fixpoints, "
        f"Gray ring isomorphism, involution, weight, 8 self-inverse units, "
        f"idempotent decomposition, 8 support-mask ideals) in "
        f"{elapsed:.3f}s of a 1s budget",
    )


def test_criterion_5_duality_and_pairing_oracles():
    # (a) divisibility criterion vs explicit subset check, every divisor
    dual_checked = 0
    dual_ok = True
    for n in (3, 4, 6, 8, 10, 12):
        for sign in (PLUS, MINUS):
            for g in divisors_of_modulus(n, sign):
                code = TernaryPolyCode(n, sign, g)
                dual_checked += 1
                dual_ok &= code.contains_dual() == code.contains_dual_by_subset()

    # (b) direct enumeration agrees with the information-set search
    dist_checked = 0
    dist_ok = True
    for n in (3, 4, 6, 8, 10, 12):
        for sign in (PLUS, MINUS):
            for g in divisors_of_modulus(n, sign):
                code = TernaryPolyCode(n, sign, g)
                if 1 <= code.k <= 8:
                    dist_checked += 1
                    dist_ok &= gf3linalg.min_weight(
                        code.generator_matrix()
                    ) == code.min_distance()

    # (c) the Hermitian pairing vanishes exactly when every shifted
    # Euclidean dot product vanishes.  For every wrap constant the
    # pairing detects orthogonality under shifts 1..s; for wrap
    # constants fixed by the automorphism that window equals the full
    # window 0..s-1 (every shift including the identity).  Proved
    # exhaustively at s=2 via bilinear-form span equality plus a full
    # zero-mask comparison, then sampled at s=4.
    pair_ok = True
    for lam in UNITS:
        for l in (1, 2):
            herm = _span(_hermitian_form_matrices(2, l, lam))
            shifted_window = _span(_window_form_matrices(2, l, lam, (1, 2)))
            pair_ok &= gf3linalg.same_row_space(herm, shifted_window)
        pair_ok &= np.array_equal(
            _zero_masks(_hermitian_form_matrices(2, 1, lam), 2),
            _zero_masks(_window_form_matrices(2, 1, lam, (1, 2)), 2),
        )
    for lam in THETA_FIXED_UNITS:
        for l in (1, 2):
            herm = _span(_hermitian_form_matrices(2, l, lam))
            all_shift = _span(_window_form_matrices(2, l, lam, (0, 1)))
            pair_ok &= gf3linalg.same_row_space(herm, all_shift)

    def sampled_pairs(rng, lam, l, window, trials):
        nonlocal pair_ok
        n = 4 * l
        op = _nabla(lam, l)
        count = 0
        for _ in range(trials):
            e = tuple(rng.choice(ELEMENTS) for _ in range(n))
            c = tuple(rng.choice(ELEMENTS) for _ in range(n))
            h = hermitian_inner_product(
                vector_to_polys(e, 4, l), vector_to_polys(c, 4, l), 4, lam
            )
            shifted, dots_zero = e, True
            for k in range(max(window) + 1):
                if k in window and ring_inner_product(shifted, c) is not ZERO:
                    dots_zero = False
                shifted = op(shifted)
            pair_ok &= bool(h) == (not dots_zero)
            count += 1
        return count

    rng = random.Random(13)
    sampled = 0
    for lam in THETA_FIXED_UNITS[:2]:
        for l in (1, 2):
            sampled += sampled_pairs(rng, lam, l, range(0, 4), 500)
    moved = [u for u in UNITS if u.theta() is not u]
    for lam in moved[:2]:
        for l in (1, 2):
            sampled += sampled_pairs(rng, lam, l, range(1, 5), 250)
    ok = dual_ok and dist_ok and pair_ok and sampled >= 2000
    _report(
        5,
        ok,
        f"dual-containment criterion matches the subset oracle on all "
        f"{dual_checked} divisors for n in 3..12; both distance engines "
        f"agree on all {dist_checked} codes with k <= 8; Hermitian pairing "
        f"matches shifted-window orthogonality for all 8 wrap constants "
        f"(full window including the identity shift for the 4 fixed by "
        f"the automorphism), exhaustively at s=2 and on {sampled} sampled "
        f"pairs at s=4",
    )


def test_criterion_6_skew_codes_and_census():
    rng = random.Random(101)
    ok = True
    # non-commutativity witness
    x = SkewPoly.x_power(1)
    ok &= x * SkewPoly([V]) == SkewPoly([ZERO, scalar(2) * V])
    ok &= x * SkewPoly([V]) != SkewPoly([V]) * x
    # right division reconstructs the dividend
    for _ in range(300):
        g = random_unit_lead(rng, rng.randrange(1, 4))
        f = random_skew(rng, 6)
        q, r = skew_right_divmod(f, g)
        ok &= f == q * g + r and r.degree < g.degree
    # every principal code is free with the full-rank Gray image
    for n in range(1, 7):
        for f in monic_right_divisors(n, 1):
            code = skew_cyclic_code(f, n)
            ok &= code.rank == n - f.degree
            ok &= code.gray_dimension == 3 * (n - f.degree)
    # census at n=1 agrees with the ideal lattice, as sets of codewords
    ok &= count_skew_cyclic(1) == 8 == len(ideals())
    codes1 = {
        frozenset(w[0] for w in RCode.cyclic(1, triple).codewords())
        for triple in itertools.product(divisors_of_modulus(1, PLUS), repeat=3)
    }
    ok &= codes1 == set(ideals())
    # census at n=3: 64 distinct component-triple codes...
    ok &= count_skew_cyclic(3) == 64
    divs = divisors_of_modulus(3, PLUS)
    seen = set()
    closed = 0
    for triple in itertools.product(divs, repeat=3):
        mod = GrayModule(RCode.cyclic(3, triple).gray_image(), 3)
        seen.add(mod.basis.tobytes())
        closed += mod.is_closed_under(skew_cyclic_shift)
    ok &= len(seen) == 64
    # ...each closed under the twisted shift (the criterion under test)
    each_closed = closed == 64
    _report(
        6,
        ok and each_closed,
        f"non-commutation witness, 300 division reconstructions, and "
        f"rank laws for all principal codes up to n=6 hold, and the 64 "
        f"component-triple codes at n=3 are distinct; but only {closed} "
        f"of 64 are closed under the twisted shift (exactly the triples "
        f"whose last two components are equal, since the automorphism "
        f"swaps those Gray blocks), so 'each is a twisted-shift code' "
        f"fails for the other {64 - closed}",
    )


def test_criterion_7_one_generator_freeness():
    totals = []
    violations = 0
    witness = None
    for s in (2, 4):
        for l in (1, 2):
            total = chain_failed = bad = 0
            for lam in UNITS:
                divs = monic_right_divisors(s, lam)
                for tup in itertools.product(divs, repeat=l):
                    total += 1
                    m = one_generator_sqc(tup, s, l, lam)
                    if not m.has_divisor_chain:
                        chain_failed += 1
                    elif not m.is_free_of_expected_rank:
                        bad += 1
                        if witness is None:
                            witness = m
            totals.append((s, l, total, chain_failed, bad))
            violations += bad
    table = "; ".join(
        f"s={s} l={l}: {total} modules, {cf} without a divisor chain, "
        f"{bad} not free"
        for s, l, total, cf, bad in totals
    )
    detail = f"swept every generator tuple over all 8 wrap constants ({table})"
    if witness is not None:
        gens = ", ".join(str(p) for p in witness.generators)
        detail += (
            f"; first counterexample: generators ({gens}) with wrap "
            f"constant {witness.lam} have common divisor "
            f"{witness.common_divisor} so a free module would have Gray "
            f"dimension {3 * witness.expected_rank}, but the closure has "
            f"Gray dimension {witness.gray_dimension}"
        )
    _report(7, violations == 0, detail)
