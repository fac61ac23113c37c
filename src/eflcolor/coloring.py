"""Element colors forced by arithmetic certificates.

Each certified element receives one color j in Z_n:

* single progression of even length: j = first + last term (all pairs
  (v_i, v_{l+1-i}) have the same sum, and they form a perfect matching
  inside the element whose edges carry canonical color j);
* single progression of odd length with central vertex c: j = 2c, which
  equals first + last; no edge at c can have canonical color j, because
  u + c = 2c forces u = c;
* split into two progressions (v_1..v_l), (u_1..u_l) with one step:
  j = v_1 + u_l, constant along the cross matching (v_i, u_{l+1-i}).

Coloring every element this way is proper whenever the certificate has
pairwise distinct centrals, and uses at most n colors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arithmetic import (
    ArithmeticCertificate,
    ElementCertificate,
    Progression,
    SingleCertificate,
    SplitCertificate,
)
from .errors import TheoremViolationError
from .model import CliqueDecomposition, check_proper


@dataclass(frozen=True)
class ColoredDecomposition:
    decomposition: CliqueDecomposition
    certificate: ArithmeticCertificate
    coloring: tuple[int, ...]
    colors_used: int


def _first_last(p: Progression) -> tuple[int, int]:
    """The first and last terms of ``p``, without building ``terms``."""
    return p.start % p.modulus, (p.start + (p.length - 1) * p.step) % p.modulus


def element_color(cert: ElementCertificate) -> int:
    """The color index forced by one certificate entry."""
    if isinstance(cert, SingleCertificate):
        p = cert.progression
        n = p.modulus
        first, last = _first_last(p)
        j = (first + last) % n
        if p.length % 2 == 1:
            central = (p.start + (p.length - 1) // 2 * p.step) % n
            if (2 * central) % n != j:
                raise TheoremViolationError(
                    (), "central identity 2c = first + last failed"
                )
        return j
    v_first, v_last = _first_last(cert.first)
    u_first, u_last = _first_last(cert.second)
    n = cert.first.modulus
    j = (v_first + u_last) % n
    if j != (u_first + v_last) % n:
        raise TheoremViolationError(
            (), "split pair sums v_1 + u_l and u_1 + v_l differ"
        )
    return j


def matching_pairs(cert: ElementCertificate) -> tuple[tuple[int, int], ...]:
    """The internal matching whose edges all carry the element's color.

    For an odd single progression the central vertex is left unmatched.
    """
    if isinstance(cert, SingleCertificate):
        terms = cert.progression.terms
        return tuple(
            (terms[i], terms[len(terms) - 1 - i]) for i in range(len(terms) // 2)
        )
    a = cert.first.terms
    b = cert.second.terms
    return tuple((a[i], b[len(b) - 1 - i]) for i in range(len(a)))


def case_label(cert: ElementCertificate) -> str:
    """Which of the three coloring rules applies: (i.a), (i.b) or (ii)."""
    if isinstance(cert, SplitCertificate):
        return "(ii)"
    if cert.progression.length % 2 == 0:
        return "(i.a)"
    return "(i.b)"


def explain_element(index: int, cert: ElementCertificate) -> str:
    """Human-readable derivation of one element's color."""
    label = case_label(cert)
    color = element_color(cert)
    matching = matching_pairs(cert)
    rendered = "{" + ", ".join(f"{a}·{b}" for a, b in matching) + "}"
    if isinstance(cert, SingleCertificate):
        ordering = ",".join(str(t) for t in cert.progression.terms)
        parts = [
            f"element {index} case {label} k={cert.step}",
            f"ordering ({ordering})",
        ]
        if cert.central is not None:
            parts.append(f"central {cert.central}")
        parts.append(f"matching {rendered}")
        parts.append(f"color {color}")
        return " ".join(parts)
    a = ",".join(str(t) for t in cert.first.terms)
    b = ",".join(str(t) for t in cert.second.terms)
    return (
        f"element {index} case {label} k={cert.step} "
        f"parts ({a})|({b}) matching {rendered} color {color}"
    )


def color_decomposition(
    d: CliqueDecomposition,
    cert: ArithmeticCertificate,
) -> ColoredDecomposition:
    """Color every element by its certificate entry.

    The result is checked for properness; a failure raises
    TheoremViolationError with the full conflict list, which signals a bug
    or a corrupted certificate, never an expected outcome.
    """
    if len(cert.entries) != len(d.elements):
        raise ValueError(
            f"certificate has {len(cert.entries)} entries for"
            f" {len(d.elements)} elements"
        )
    coloring = tuple(element_color(entry) for entry in cert.entries)
    verdict = check_proper(d, coloring)
    if not verdict.ok:
        raise TheoremViolationError(verdict.conflicts)
    colors_used = len(set(coloring))
    if colors_used > d.n:
        raise TheoremViolationError(
            (), f"certified coloring uses {colors_used} colors for n = {d.n}"
        )
    return ColoredDecomposition(d, cert, coloring, colors_used)
