"""Element color formulas, matchings, and end-to-end properness."""

import pytest

from eflcolor import (
    Progression,
    SingleCertificate,
    SplitCertificate,
    canonical_edge_color,
    case_label,
    check_proper,
    color_decomposition,
    element_color,
    element_options,
    explain_element,
    find_certificate,
    fixture,
    matching_pairs,
    random_decomposition,
    trivial_edges,
)
from eflcolor.errors import TheoremViolationError


def single(start, step, length, n=9):
    return SingleCertificate(Progression(start, step, length, n))


def split(s1, s2, step, length, n=9):
    return SplitCertificate(
        Progression(s1, step, length, n), Progression(s2, step, length, n)
    )


class TestElementColor:
    def test_odd_single_is_doubled_central(self):
        assert element_color(single(0, 3, 3)) == 6  # central 3
        assert element_color(single(4, 2, 3)) == 3  # ordering (4,6,8), central 6

    def test_split_of_singletons_is_canonical_color(self):
        for a, b in [(0, 1), (2, 7), (4, 8)]:
            cert = split(a, b, 1, 1)
            assert element_color(cert) == canonical_edge_color(a, b, 9)

    def test_even_single_first_plus_last(self):
        cert = single(0, 1, 4)
        assert element_color(cert) == 3

    def test_split_cross_sum(self):
        cert = split(0, 5, 1, 2)  # ({0,1}, {5,6})
        assert element_color(cert) == 6

    def test_matching_sums_constant(self):
        for cert in [single(0, 1, 4), single(2, 3, 3), split(0, 5, 1, 2)]:
            j = element_color(cert)
            for a, b in matching_pairs(cert):
                assert (a + b) % 9 == j

    def test_odd_matching_omits_central(self):
        cert = single(0, 3, 3)
        pairs = matching_pairs(cert)
        assert pairs == ((0, 6),)
        assert all(3 not in p for p in pairs)

    def test_central_avoidance(self):
        # no u other than the central itself satisfies u + c = 2c (mod n)
        cert = single(0, 3, 3)
        c = cert.central
        j = element_color(cert)
        for u in range(9):
            if (u + c) % 9 == j:
                assert u == c


def terms_color(cert):
    """Reference ``element_color``: reads first and last off ``terms``."""
    if isinstance(cert, SingleCertificate):
        p = cert.progression
        j = (p.terms[0] + p.terms[-1]) % p.modulus
        if p.length % 2 == 1 and (2 * p.central) % p.modulus != j:
            raise TheoremViolationError((), "central identity 2c = first + last failed")
        return j
    first, second = cert.first, cert.second
    j = (first.terms[0] + second.terms[-1]) % first.modulus
    if j != (second.terms[0] + first.terms[-1]) % first.modulus:
        raise TheoremViolationError((), "split pair sums v_1 + u_l and u_1 + v_l differ")
    return j


def option_decompositions():
    named = [fixture(name) for name in ("paper_k9", "fano_k7", "sts9_k9")]
    named += [trivial_edges(7), fixture("near_pencil", n=8)]
    return named + [
        random_decomposition(n, seed) for n in range(2, 14) for seed in range(4)
    ]


class TestElementColorClosedForm:
    """``element_color`` computes first + last from start, step and length;
    it must agree with the ``terms``-based formula on every option."""

    def test_every_option_matches_terms(self):
        checked = 0
        for d in option_decompositions():
            for elem in d.elements:
                for cert in element_options(elem.vertices, d.n):
                    assert element_color(cert) == terms_color(cert), cert
                    checked += 1
        assert checked > 1000

    def test_wrapping_and_unreduced_starts(self):
        for n in (5, 9, 12):
            for start in range(-n, 2 * n):
                for step in range(1, n // 2 + 1):
                    for length in range(1, n + 1):
                        cert = single(start, step, length, n)
                        assert element_color(cert) == terms_color(cert)

    def test_split_with_different_steps_raises(self):
        # ({0,1}, {4,6}): 0 + 6 != 4 + 1
        cert = SplitCertificate(Progression(0, 1, 2, 9), Progression(4, 2, 2, 9))
        with pytest.raises(TheoremViolationError, match="split pair sums"):
            terms_color(cert)
        with pytest.raises(TheoremViolationError, match="split pair sums"):
            element_color(cert)

    def test_split_with_different_lengths_raises(self):
        cert = SplitCertificate(Progression(0, 1, 2, 9), Progression(4, 1, 3, 9))
        with pytest.raises(TheoremViolationError, match="split pair sums"):
            element_color(cert)


class TestCaseLabels:
    def test_labels(self):
        assert case_label(single(0, 1, 4)) == "(i.a)"
        assert case_label(single(0, 3, 3)) == "(i.b)"
        assert case_label(split(0, 5, 1, 2)) == "(ii)"

    def test_explain_odd_single(self):
        text = explain_element(0, single(0, 3, 3))
        assert "case (i.b)" in text
        assert "central 3" in text
        assert "{0·6}" in text
        assert "color 6" in text

    def test_explain_split(self):
        text = explain_element(4, split(0, 5, 1, 2))
        assert "case (ii)" in text
        assert "{0·6, 1·5}" in text
        assert "color 6" in text

    def test_explain_even_single(self):
        text = explain_element(1, single(0, 1, 4))
        assert "case (i.a)" in text
        assert "{0·3, 1·2}" in text
        assert "color 3" in text


class TestColorDecomposition:
    def test_paper_k9_colors(self):
        d = fixture("paper_k9")
        cert = find_certificate(d)
        colored = color_decomposition(d, cert)
        assert colored.coloring[:7] == (6, 8, 7, 4, 3, 2, 1)
        for elem, color in zip(d.elements[7:], colored.coloring[7:]):
            a, b = elem.vertices
            assert color == (a + b) % 9
        assert colored.colors_used <= 9
        assert check_proper(d, colored.coloring).ok

    @pytest.mark.parametrize("n", range(2, 13))
    def test_all_edges_reproduces_canonical_coloring(self, n):
        d = trivial_edges(n)
        cert = find_certificate(d)
        colored = color_decomposition(d, cert)
        for elem, color in zip(d.elements, colored.coloring):
            a, b = elem.vertices
            assert color == canonical_edge_color(a, b, n)
        assert colored.colors_used <= n

    def test_random_certified_instances_proper(self):
        checked = 0
        for n in range(4, 10):
            for seed in range(30):
                d = random_decomposition(n, seed)
                cert = find_certificate(d)
                if cert is None:
                    continue
                colored = color_decomposition(d, cert)
                assert colored.colors_used <= n
                checked += 1
        assert checked > 50

    def test_matching_identity_on_every_certified_element(self):
        # all matched pairs of an entry sum to the element's color
        for n in range(4, 10):
            for seed in range(20):
                d = random_decomposition(n, seed)
                cert = find_certificate(d)
                if cert is None:
                    continue
                for entry in cert.entries:
                    j = element_color(entry)
                    for a, b in matching_pairs(entry):
                        assert (a + b) % n == j

    def test_internal_matching_edges_carry_element_color(self):
        d = fixture("paper_k9")
        cert = find_certificate(d)
        colored = color_decomposition(d, cert)
        for entry, color in zip(cert.entries, colored.coloring):
            for a, b in matching_pairs(entry):
                assert canonical_edge_color(a, b, 9) == color

    def test_corrupted_certificate_raises(self):
        d = trivial_edges(3)
        cert = find_certificate(d)
        # duplicate the first entry everywhere: every element gets color of
        # element 0, guaranteed conflicts
        from eflcolor import ArithmeticCertificate

        broken = ArithmeticCertificate((cert.entries[0],) * 3)
        with pytest.raises(TheoremViolationError) as exc:
            color_decomposition(d, broken)
        assert exc.value.conflicts

    def test_entry_count_mismatch(self):
        d = trivial_edges(3)
        cert = find_certificate(d)
        from eflcolor import ArithmeticCertificate

        with pytest.raises(ValueError):
            color_decomposition(d, ArithmeticCertificate(cert.entries[:2]))
