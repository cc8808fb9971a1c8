"""Trace-calculus bracket: normalization, skein reduction, numeric oracle."""

import argparse
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoalg import cli, frobenius as fro, ks_calculus as ks
from geoalg.dn_algebra import dn_algebra, generator_tuples, _pair_bracket
from geoalg.poly_core import E, Expr, ZERO, const, parse_gen


def _tr(letters, sign=1):
    """sign * Tr(letters) as a {word: coefficient} sum, the form of
    ks_bracket_symbolic: the empty word has trace 2 and a pure H-power
    word the Casimir parameter TrH|k|, both scalar, under the key ()."""
    c, w = ks._normalize(ks._encode(letters))
    if not c:
        return {}
    if len(w) > 1:
        return {w: c * sign}
    return {(): Expr({ks._scalar_monomial(w): c * sign})}


def _plus(*parts):
    """The sum of {word: coefficient} sums, cancelled words dropped."""
    out = {}
    for part in parts:
        for w, c in part.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _normalized(letters):
    """Tr(letters) as (coefficient, canonical word in ("M", i) / ("H", k)
    letters), or (scalar Expr, None) when the trace is a scalar."""
    terms = _tr(letters)
    if not terms:
        return ZERO, None
    ((word, c),) = terms.items()
    if not word:
        return c, None
    return const(c), tuple(ks._letter(x) for x in word)


def test_normalize_cancellations():
    # M_i M_i = -1 and H-run merging, cyclically
    c, w = _normalized((ks.M(1), ks.M(1)))
    assert w is None and c == const(-2)
    c, w = _normalized((ks.H(2), ks.H(-2)))
    assert w is None and c == const(2)
    c, w = _normalized((ks.H(1), ks.M(1), ks.M(2), ks.H(1)))
    assert c == const(1) and w == (ks.M(1), ks.M(2), ks.H(2))


def test_normalize_cyclic_invariance():
    base = (ks.M(1), ks.H(1), ks.M(2), ks.H(-1))
    c0, w0 = _normalized(base)
    for r in range(1, len(base)):
        c, w = _normalized(base[r:] + base[:r])
        assert (c, w) == (c0, w0)


def test_scalar_traces():
    assert _normalized(())[0] == const(2)
    c, w = _normalized((ks.H(3),))
    assert w is None and str(c) == "TrH3"
    c, w = _normalized((ks.M(2),))
    assert c == ZERO and w is None


def test_skein_reduce_two_letter_words():
    e = _tr((ks.M(1), ks.H(2), ks.M(3), ks.H(-2)))
    assert ks.skein_reduce(e) == -const(1) * E("G[1,3,2]")


def test_irreducible_words():
    # the messages name the letters, not their int codes
    with pytest.raises(ks.IrreducibleWord, match=re.escape(
            "odd number of M letters in (('M', 1), ('M', 2), ('M', 3))")):
        ks.skein_reduce(_tr((ks.M(1), ks.M(2), ks.M(3))))
    with pytest.raises(ks.IrreducibleWord, match=re.escape(
            "unbalanced H exponent 1 in (('M', 1), ('H', 1), ('M', 2))")):
        ks.skein_reduce(_tr((ks.M(1), ks.H(1), ks.M(2))))

GENS3 = [(1, 2, 0), (1, 3, 0), (2, 3, 0)] + [
    (i, j, 1) for i in range(1, 4) for j in range(1, 4)]


@pytest.mark.parametrize("a", GENS3[:3])
@pytest.mark.parametrize("b", GENS3)
def test_symbolic_bracket_matches_structure_constants(a, b):
    alg = dn_algebra(3)
    lhs = ks.skein_reduce(ks.ks_bracket_symbolic(ks.gen_word(*a),
                                               ks.gen_word(*b)))
    assert lhs == _pair_bracket(alg, a, b)


def _rand_traceless(rng):
    a = rng.uniform(-2, 2)
    b = rng.uniform(0.3, 2) * rng.choice([-1, 1])
    return np.array([[a, b], [-(1 + a * a) / b, -a]])


def test_numeric_oracle_matches_level0_constants():
    rng = random.Random(1)
    mats = [_rand_traceless(rng) for _ in range(3)]
    alg = dn_algebra(3)
    vals = {(i, j, 0): -np.trace(mats[i - 1] @ mats[j - 1])
            for i in range(1, 4) for j in range(1, 4)}

    def f(i, j):
        return lambda ms: -np.trace(ms[i - 1] @ ms[j - 1], axis1=-2, axis2=-1)

    for a in [(1, 2, 0), (1, 3, 0)]:
        for b in [(1, 3, 0), (2, 3, 0)]:
            expr = _pair_bracket(alg, a, b)
            rhs = 0.0
            for mono, coeff in expr.terms():
                x = float(coeff)
                for name, power in mono:
                    i, j, k = parse_gen(name)
                    key = (min(i, j), max(i, j), k)
                    x *= vals[key] ** power
                rhs += x
            lhs = ks.ks_bracket_numeric(f(a[0], a[1]), f(b[0], b[1]), mats)
            assert abs(lhs - rhs) < 1e-9


def test_numeric_oracle_rejects_singular():
    mats = [np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(ValueError):
        ks.ks_bracket_numeric(lambda m: 0.0, lambda m: 0.0, mats)


# -- reference oracle: the per-entry complex-step loop and the np.kron
# exchange tensor, one entry and one (i, j) at a time ----------------------


def _kron_tensor(mi, mj, rel):
    """(m^2 x m^2) T with {(M_i)_ab, (M_j)_cd} = T[(a,c),(b,d)]; rel is
    -1, 0, +1 for i < j, i = j, i > j."""
    m = mi.shape[0]
    eye = np.eye(m)
    omega = np.kron(eye, eye).reshape(m, m, m, m).transpose(
        0, 1, 3, 2).reshape(m * m, m * m)
    a1, b2, ab = np.kron(mi, eye), np.kron(eye, mj), np.kron(mi, mj)
    if rel == 0:
        return 0.5 * (b2 @ omega @ a1 - a1 @ omega @ b2)
    if rel > 0:
        return -_kron_tensor(mj, mi, -1).reshape(m, m, m, m).transpose(
            1, 0, 3, 2).reshape(m * m, m * m)
    return 0.5 * (a1 @ omega @ b2 + b2 @ omega @ a1 - omega @ ab - ab @ omega)


def _loop_grad(f, mats, i):
    m = mats[i].shape[0]
    out = np.zeros((m, m))
    base = [mat.astype(complex) for mat in mats]
    for a in range(m):
        for b in range(m):
            pert = [mat.copy() for mat in base]
            pert[i][a, b] += 1j * 1e-100
            out[a, b] = np.imag(f(pert)) / 1e-100
    return out


def _reference_brackets(fs, mats):
    n, m = len(mats), mats[0].shape[0]
    grads = [[_loop_grad(f, mats, i) for i in range(n)] for f in fs]
    tensors = {(i, j): _kron_tensor(mats[i], mats[j], np.sign(i - j))
               .reshape(m, m, m, m) for i in range(n) for j in range(n)}
    return np.array([[sum(np.einsum("ab,acbd,cd->", gp[i], tensors[i, j],
                                    gq[j])
                          for i in range(n) for j in range(n))
                      for gq in grads] for gp in grads])


def _stacked(fs):
    return lambda ms: np.stack([f(ms) for f in fs], axis=-1)


def _assert_matches_reference(f, fs, mats):
    # f is the batched function whose values are those of fs, in order;
    # relative to the largest bracket at the point: single brackets are
    # sums that cancel, so a per-entry ratio would measure the cancellation
    # of the terms, not the oracle
    new = ks.ks_brackets_numeric(f, mats)
    ref = _reference_brackets(fs, mats)
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def _clash_word(i, j, k, holes):
    def f(ms):
        h = ms[holes[0]]
        for t in holes[1:]:
            h = h @ ms[t]
        return -np.trace(ms[i - 1] @ np.linalg.matrix_power(h, k)
                         @ ms[j - 1] @ np.linalg.matrix_power(h, -k),
                         axis1=-2, axis2=-1)
    return f


@pytest.mark.parametrize("seed", range(4))
def test_batched_oracle_matches_reference_2x2(seed):
    rng = random.Random(seed)
    mats = [_rand_traceless(rng) for _ in range(5)]
    fs = [_clash_word(*g, holes=(3, 4)) for g in generator_tuples(3, 2)]
    _assert_matches_reference(_stacked(fs), fs, mats)


def _float_monodromies(s):
    # M_r = 1 - E_r G in floats, from G = S + S^T
    g = np.array([[float(x.as_rational()) for x in row]
                  for row in s.symmetrization().rows])
    eye = np.eye(s.n)
    return [eye - np.outer(eye[r], g[r]) for r in range(s.n)]


@pytest.mark.parametrize("seed", range(6))
def test_batched_oracle_matches_reference_stokes(seed):
    # the realization's one trace function of all generators against a
    # matrix_power word per generator: the words are -Tr(...) and the
    # bracket of (-f, -g) is that of (f, g)
    s = fro.random_stokes(5, random.Random(seed))
    gens = generator_tuples(3, 2)
    fs = [_clash_word(*g, holes=(3, 4)) for g in gens]
    _assert_matches_reference(fro._trace_family(gens, 4), fs,
                              _float_monodromies(s))


def test_batched_oracle_matches_reference_generic():
    # the letters above square to +-1, where the i = j exchange term
    # vanishes; generic 3 x 3 matrices exercise it
    rng = np.random.default_rng(5)
    mats = list(rng.uniform(-1, 1, (3, 3, 3)) + 2 * np.eye(3))

    def tr(*word):
        def f(ms):
            x = ms[word[0]]
            for w in word[1:]:
                x = x @ ms[w]
            return np.trace(x, axis1=-2, axis2=-1)
        return f

    fs = [tr(0, 0), tr(0, 1), tr(0, 1, 2), tr(2, 1, 1, 0), tr(2)]
    _assert_matches_reference(_stacked(fs), fs, mats)


def test_numeric_oracle_rejects_non_batch_aware_function():
    rng = random.Random(2)
    mats = [_rand_traceless(rng) for _ in range(2)]
    flat = lambda ms: np.trace(ms[0] @ ms[1])  # traces the batch axis
    with pytest.raises(ValueError):
        ks.ks_bracket_numeric(flat, flat, mats)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([ks.M(1), ks.M(2), ks.M(3), ks.H(1),
                                 ks.H(-1)]), min_size=0, max_size=6))
def test_bracket_antisymmetry(word):
    w2 = (ks.M(1), ks.H(1), ks.M(2), ks.H(-1))
    lhs = ks.ks_bracket_symbolic(tuple(word), w2)
    rhs = ks.ks_bracket_symbolic(w2, tuple(word))
    # word by word, and for the scalar part under (): minus each other
    assert lhs.keys() == rhs.keys()
    for w, c in lhs.items():
        assert c == -rhs[w]


# -- references for the int-letter oracle: the tuple-letter normalization
# and the Wick sum taken one Expr product at a time ------------------------


def _ref_letter_key(letter):
    return (0, letter[1], 0) if letter[0] == "M" else (1, 0, letter[1])


def _ref_normalize(letters):
    sign, work = 1, [l for l in letters if l[0] == "M" or l[1]]
    changed = True
    while changed:
        changed = False
        out = []
        for letter in work:
            if out and letter[0] == "H" and out[-1][0] == "H":
                k = out.pop()[1] + letter[1]
                if k:
                    out.append(("H", k))
                changed = True
            elif out and letter[0] == "M" and out[-1] == letter:
                out.pop()
                sign, changed = -sign, True
            else:
                out.append(letter)
        while len(out) >= 2:
            if out[0][0] == "H" and out[-1][0] == "H":
                k = out[0][1] + out[-1][1]
                out = out[1:-1] + ([("H", k)] if k else [])
                changed = True
            elif out[0][0] == "M" and out[0] == out[-1]:
                out = out[1:-1]
                sign, changed = -sign, True
            else:
                break
        work = out
    if not work:
        return const(2 * sign), None
    if all(l[0] == "H" for l in work):
        return const(sign) * E(f"TrH{abs(sum(l[1] for l in work))}"), None
    if len(work) == 1:
        return ZERO, None
    keys = [_ref_letter_key(l) for l in work]
    r = min(range(len(work)), key=lambda r: keys[r:] + keys[:r])
    return const(sign), tuple(work[r:] + work[:r])


def _ref_generator(i, j, k):
    if k < 0:
        i, j, k = j, i, -k
    if k == 0:
        if i == j:
            return const(2)
        i, j = min(i, j), max(i, j)
    return E(f"G[{i},{j},{k}]")


def _ref_matchings(items):
    """Perfect matchings of *items* with their permutation signs."""
    if not items:
        yield 1, []
        return
    for t in range(1, len(items)):
        rest = items[1:t] + items[t + 1:]
        for s, pairs in _ref_matchings(rest):
            yield (-1) ** (t - 1) * s, [(items[0], items[t])] + pairs


def _ref_reduce(word):
    letters, c = [], 0
    for kind, v in word:
        if kind == "H":
            c += v
        else:
            letters.append((v, c))
    if len(letters) % 2 or c:
        raise ks.IrreducibleWord(word)
    out = ZERO
    for sign, pairs in _ref_matchings(list(range(len(letters)))):
        term = const(sign)
        for s, t in pairs:
            term = term * _ref_generator(letters[s][0], letters[t][0],
                                         letters[t][1] - letters[s][1])
        out = out + term
    r = len(letters) // 2
    return out * const(Fraction(2 * (-1) ** r, 2 ** r))


_LETTERS = [ks.M(i) for i in range(0, 5)] + [
    ks.H(k) for k in (-3, -2, -1, 1, 2, 3)]


@st.composite
def _balanced_words(draw):
    # 2, 4 or 6 M letters, each followed by an H power, the last of which
    # balances the total: words in the span of the generators
    size = 2 * draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3)),
                          min_size=size, max_size=size))
    word = []
    for i, k in pairs[:-1]:
        word += [ks.M(i), ks.H(k)]
    return word + [ks.M(pairs[-1][0]), ks.H(-sum(k for _, k in pairs[:-1]))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LETTERS), max_size=10) | _balanced_words())
def test_int_letters_match_the_tuple_reference(word):
    coeff, canon = _normalized(word)
    assert (coeff, canon) == _ref_normalize(word)
    try:
        want = coeff if canon is None else coeff * _ref_reduce(canon)
    except ks.IrreducibleWord:
        with pytest.raises(ks.IrreducibleWord):
            ks.skein_reduce(_tr(word))
    else:
        assert ks.skein_reduce(_tr(word)) == want


@pytest.mark.parametrize("word", [
    (ks.M(0), ks.M(0)),
    (ks.M(0), ks.M(1), ks.M(1), ks.M(0)),
    (ks.H(1), ks.H(-1), ks.M(1), ks.M(1)),
    (ks.H(1), ks.H(-1), ks.M(0), ks.M(0)),
    (ks.M(2), ks.H(2), ks.H(-2), ks.M(2), ks.M(0), ks.H(1)),
])
def test_normalize_empties_the_stack_before_any_letter(word):
    # M_0 has code 0, and an H run that merges to H^0 at the bottom of the
    # stack leaves it empty: neither may be read as a letter on the stack
    assert _normalized(word) == _ref_normalize(word)


def test_merged_h_exponents_keep_the_letter_range():
    # a merged H run obeys the bound of a single letter, |k| < 2^19, and is
    # rejected past it rather than read as an M letter
    big = 300000
    for word in [(ks.H(-big), ks.H(big - 1), ks.M(1), ks.M(2)),
                 (ks.H(big), ks.M(1), ks.H(-big), ks.M(2), ks.H(-1))]:
        assert _normalized(word) == _ref_normalize(word)
    for word in [(ks.H(-big), ks.H(-big)), (ks.H(big), ks.H(big)),
                 (ks.M(1), ks.H(-big), ks.H(-big), ks.M(2)),
                 (ks.H(-big), ks.M(1), ks.M(2), ks.H(-big))]:
        with pytest.raises(ValueError):
            _tr(word)


@pytest.mark.parametrize("size", range(0, 10, 2))
def test_matchings_built_once_per_size_match_the_reference(size):
    want = sorted((s, tuple(p)) for s, p in _ref_matchings(list(range(size))))
    assert sorted(ks._matchings(size)) == want


def test_skein_reduce_sums_per_denominator():
    # word coefficients 1/3, -5/6 and 1/4 give the denominators 6, 6 and 4
    # (times 2 / (-2)^r for r pairs), whose least common multiple is none
    # of them, and a scalar part rides along: the reference Wick sum term
    # by term
    words = [((ks.M(1), ks.H(1), ks.M(2), ks.H(-1), ks.M(3), ks.M(4)),
              Fraction(1, 3)),
             ((ks.M(2), ks.H(2), ks.M(3), ks.H(-2)), Fraction(-5, 6)),
             ((ks.M(1), ks.M(3)), Fraction(1, 4))]
    e = _plus(_tr((ks.H(2),), 3), _tr((), 7))
    want = const(3) * E("TrH2") + const(14)
    for word, c in words:
        e = _plus(e, _tr(word, c))
        sign, canon = _ref_normalize(word)
        want += sign * const(c) * _ref_reduce(canon)
    assert ks.skein_reduce(e) == want
    w1, c1 = words[0]
    assert ks.skein_reduce(_plus(_tr(w1, c1), _tr(w1, -c1))) == ZERO


@pytest.fixture
def fresh_rules():
    # the letter-pair rules are built once per process: drop those built
    # from patched rule functions
    yield
    ks._rule.cache_clear()


@pytest.mark.parametrize("rule", ["_rule_mm", "_rule_h1h"])
def test_a_flipped_rule_term_fails_the_ks_suite(rule, monkeypatch,
                                               fresh_rules):
    def flipped(*args):
        (c, *pieces), *rest = original(*args)
        return [(-c, *pieces)] + rest

    args = argparse.Namespace(n=3, level=1)
    assert all(run()[0] for _, run, _ in cli._suite_ks(args))
    original = getattr(ks, rule)
    monkeypatch.setattr(ks, rule, flipped)
    ks._rule.cache_clear()
    failed = sum(not run()[0] for _, run, _ in cli._suite_ks(args))
    assert failed > 0


def test_a_flipped_wick_matching_fails_the_ks_suite(monkeypatch):
    # one sign of the size-4 Wick sum flipped: the rules stay right, so
    # only the Wick arithmetic can catch it
    def flipped(size):
        (sign, pairs), *rest = original(size)
        return ((-sign, pairs), *rest) if size == 4 else original(size)

    args = argparse.Namespace(n=3, level=1)
    assert all(run()[0] for _, run, _ in cli._suite_ks(args))
    original = ks._matchings
    original.cache_clear()
    monkeypatch.setattr(ks, "_matchings", flipped)
    try:
        failed = sum(not run()[0] for _, run, _ in cli._suite_ks(args))
    finally:
        original.cache_clear()  # larger sizes were built from the flip
    assert failed > 0


@pytest.mark.parametrize("n,level", [(4, 2), (5, 1)])
def test_generator_bracket_is_the_direct_oracle(n, level):
    gens, memo = generator_tuples(n, level), {}
    for idx, a in enumerate(gens):
        for b in gens[idx:]:
            assert ks.generator_bracket(a, b, memo) == ks.skein_reduce(
                ks.ks_bracket_symbolic(ks.gen_word(*a), ks.gen_word(*b)))


@pytest.mark.parametrize("n,level,patterns", [(3, 1, 50), (4, 2, 222),
                                              (6, 2, 222)])
def test_the_ks_suite_runs_the_oracle_once_per_pattern(n, level, patterns,
                                                       monkeypatch):
    calls = []

    def counted(w1, w2):
        calls.append((w1, w2))
        return original(w1, w2)

    original = ks.ks_bracket_symbolic
    monkeypatch.setattr(ks, "ks_bracket_symbolic", counted)
    cases = cli._suite_ks(argparse.Namespace(n=n, level=level))
    assert all(run()[0] for _, run, _ in cases)
    assert len(calls) == patterns


class _LevelBlind(dict):
    """A memo whose keys drop the two levels."""

    def get(self, key):
        return super().get(self._blind(key))

    def __setitem__(self, key, value):
        super().__setitem__(self._blind(key), value)

    @staticmethod
    def _blind(key):
        return tuple(t[:2] for t in key)


def _first_seen(a, b):
    index = list(dict.fromkeys((a[0], a[1], b[0], b[1])))
    rank = {x: r for r, x in enumerate(index, 1)}
    return index, *((rank[i], rank[j], k) for i, j, k in (a, b))


@pytest.mark.parametrize("mutant,pairs", [("identity rename", 20),
                                          ("key without levels", 22),
                                          ("ranks by first appearance", 19)])
def test_a_wrong_pattern_memo_fails_the_ks_suite(mutant, pairs, monkeypatch):
    # each mutant gets some of the 78 pairs wrong, and the suite says so
    args = argparse.Namespace(n=3, level=1)
    assert all(run()[0] for _, run, _ in cli._suite_ks(args))
    if mutant == "identity rename":
        monkeypatch.setattr(Expr, "rename", lambda self, names: self)
    elif mutant == "key without levels":
        original, blind = ks.generator_bracket, _LevelBlind()
        monkeypatch.setattr(ks, "generator_bracket",
                            lambda a, b, memo: original(a, b, blind))
    else:
        monkeypatch.setattr(ks, "_ranked", _first_seen)
    failed = sum(not run()[0] for _, run, _ in cli._suite_ks(args))
    assert failed == pairs


def _rule_words(w1, w2):
    """The raw words left + v + right + u of every rule term of {Tr w1,
    Tr w2}, each with its coefficient (in halves), as words of int codes;
    None when a side is a scalar."""
    c1, w1 = ks._normalize(ks._encode(w1))
    c2, w2 = ks._normalize(ks._encode(w2))
    if len(w1) < 2 or len(w2) < 2:
        return None
    out = []
    for p, a in enumerate(w1):
        u = w1[p + 1:] + w1[:p]
        for q, b in enumerate(w2):
            v = w2[q + 1:] + w2[:q]
            out += [(c * c1 * c2, left + v + right + u)
                    for c, left, right in ks._rule(a, b)]
    return out


def _ref_bracket(w1, w2):
    """{Tr w1, Tr w2} with every rule word normalized on its own."""
    words = _rule_words(w1, w2)
    if words is None:
        return {}
    sums = {}
    for c, word in words:
        s, w = ks._normalize(word)
        sums[w] = sums.get(w, 0) + c * s
    scalars = {ks._scalar_monomial(w): Fraction(s, 2)
               for w, s in sums.items() if len(w) < 2}
    return _plus({(): Expr(scalars)},
                 {w: Fraction(s, 2) for w, s in sums.items() if len(w) > 1})


@pytest.mark.parametrize("n,level", [(3, 2), (4, 1)])
def test_bracket_matches_the_per_rule_word_reference(n, level):
    gens = generator_tuples(n, level)
    for idx, a in enumerate(gens):
        for b in gens[idx:]:
            w1, w2 = ks.gen_word(*a), ks.gen_word(*b)
            assert ks.ks_bracket_symbolic(w1, w2) == _ref_bracket(w1, w2)


def test_raw_words_that_cancel_before_normalization():
    w1, w2 = ks.gen_word(1, 2, 0), ks.gen_word(1, 3, 0)
    sums = {}
    for c, word in _rule_words(w1, w2):
        sums.setdefault(word, []).append(c)
    # a raw word whose rule terms cancel although its trace is nonzero
    assert any(len(cs) > 1 and not sum(cs) and ks._normalize(word)[0]
               for word, cs in sums.items())
    got = ks.ks_bracket_symbolic(w1, w2)
    assert got == _ref_bracket(w1, w2)
    assert ks.skein_reduce(got) == _pair_bracket(dn_algebra(3), (1, 2, 0),
                                                 (1, 3, 0))
