"""Each scheme builder's exact descriptor on one quality pair per face of
the triangle 0 <= alpha <= beta <= 1: its symbols, decode plan and common
split, built on ``Fraction`` qualities.

Every builder branch (a common layer below beta = 1, the repeated u_0
above beta = alpha, a matched subband at quality 0 or 1) is constant on a
face, so these seven builds fix the shape of every build.  Each face's
builds also read one compiled decode table, which the next tests check.
The last ones check ``build_descriptor``'s face templates against the
builders themselves, the oracle, field by field, bit by bit and type by
type, and that a template is refused where its face breaks a check.
"""

import functools
import numbers
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from dofsim import channel as ch
from dofsim import linkmc as mc
from dofsim import schemes as sch
from dofsim.model import SUBBANDS, UNMATCHED, QualityPair, Scenario, cell_index
from test_schemes import SCHEME_SCENARIOS, _reference_links, _zero_forced_on

#: (beta, alpha) on the interior, the edges alpha = 0, beta = 1 and
#: beta = alpha, and the corners (0, 0), (1, 0) and (1, 1).
FACES = [("4/5", "1/2"), ("1/2", "0"), ("1", "1/2"), ("3/5", "3/5"), ("0", "0"), ("1", "0"),
         ("1", "1")]


def _precoder(p):
    return p.kind if p.user is None else f"{p.kind}({p.user} {p.subband})"


def _power(t):
    return f"{t.coeff}(P^{t.hi}" + ("" if t.lo is None else f" - P^{t.lo}") + ")"


def _render(d):
    """One line per symbol instance, then the decode plan, then the common split."""
    lines = [f"{s.id} {s.owner} {s.slot} {_precoder(s.precoder)} {_power(s.power)} "
             f"rate {s.rate_exponent}" for s in d.symbols]
    lines.append("plan " + " ".join(f"{st.user}:{st.slot}:{st.symbol}" for st in d.decode_plan))
    lines.append("split " + (" ".join(f"{k}={v!r}" for k, v in d.common_split.items())
                             or "none"))
    return lines


#: fdma's descriptor does not depend on the qualities or the scenario.
FDMA = """
    x_A user1 A basis_e1 1(P^1) rate 1
    x_B user2 B basis_e1 1(P^1) rate 1
    plan user1:A:x_A user2:B:x_B
    split none
"""

PINNED = {
    ("zfbf", "unmatched", "4/5", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 4/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 4/5
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "1/2", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1/2
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "1", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "3/5", "3/5"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 3/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 3/5
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 3/5
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 3/5
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "0", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 0
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 0
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "1", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "unmatched", "1", "1"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "4/5", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 4/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 4/5
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1/2
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "1/2", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 0
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "1", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1/2
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "3/5", "3/5"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 3/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 3/5
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 3/5
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 3/5
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "0", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 0
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 0
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "1", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 0
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 0
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("zfbf", "matched", "1", "1"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        plan user1:A:u_A user1:B:u_B user2:A:v_A user2:B:v_B
        split none
    """,
    ("s3", "unmatched", "4/5", "1/2"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 4/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 4/5
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "1/2", "0"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "1", "1/2"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "3/5", "3/5"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 3/5
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 3/5
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "0", "0"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 0
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "1", "0"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("s3", "unmatched", "1", "1"): """
        u_0 user1 A aligned(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_0 user1 B aligned(user1 B) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:B:u_B user2:B:u_0 user2:A:v_A
        split none
    """,
    ("optimal-unmatched", "unmatched", "4/5", "1/2"): """
        xc_A common A basis_e1 1(P^1 - P^4/5) rate 1/5
        u_A user1 A zf_orth(user2 A) 1/2(P^1/2) rate 1/2
        u_0 user1 A aligned(user2 A) 1/2(P^4/5 - P^1/2) rate 3/10
        v_A user2 A zf_orth(user1 A) 1/2(P^4/5) rate 4/5
        xc_B common B basis_e1 1(P^1 - P^4/5) rate 1/5
        v_B user2 B zf_orth(user1 B) 1/2(P^1/2) rate 1/2
        u_0 user1 B aligned(user1 B) 1/2(P^4/5 - P^1/2) rate 3/10
        u_B user1 B zf_orth(user2 B) 1/2(P^4/5) rate 4/5
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_0 user1:A:u_A user1:B:u_B user2:B:u_0 user2:B:v_B user2:A:v_A
        split xc_A=1.0 xc_B=0.0
    """,
    ("optimal-unmatched", "unmatched", "1/2", "0"): """
        xc_A common A basis_e1 1(P^1 - P^1/2) rate 1/2
        u_A user1 A zf_orth(user2 A) 1/2(P^0) rate 0
        u_0 user1 A aligned(user2 A) 1/2(P^1/2 - P^0) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1/2) rate 1/2
        xc_B common B basis_e1 1(P^1 - P^1/2) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^0) rate 0
        u_0 user1 B aligned(user1 B) 1/2(P^1/2 - P^0) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1/2) rate 1/2
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_0 user1:A:u_A user1:B:u_B user2:B:u_0 user2:B:v_B user2:A:v_A
        split xc_A=1.0 xc_B=0.0
    """,
    ("optimal-unmatched", "unmatched", "1", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1/2) rate 1/2
        u_0 user1 A aligned(user2 A) 1/2(P^1 - P^1/2) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^1/2) rate 1/2
        u_0 user1 B aligned(user1 B) 1/2(P^1 - P^1/2) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:A:u_A user1:B:u_B user2:B:u_0 user2:B:v_B user2:A:v_A
        split none
    """,
    ("optimal-unmatched", "unmatched", "3/5", "3/5"): """
        xc_A common A basis_e1 1(P^1 - P^3/5) rate 2/5
        u_A user1 A zf_orth(user2 A) 1/2(P^3/5) rate 3/5
        v_A user2 A zf_orth(user1 A) 1/2(P^3/5) rate 3/5
        xc_B common B basis_e1 1(P^1 - P^3/5) rate 2/5
        v_B user2 B zf_orth(user1 B) 1/2(P^3/5) rate 3/5
        u_B user1 B zf_orth(user2 B) 1/2(P^3/5) rate 3/5
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_A user1:B:u_B user2:B:v_B user2:A:v_A
        split xc_A=1.0 xc_B=0.0
    """,
    ("optimal-unmatched", "unmatched", "0", "0"): """
        xc_A common A basis_e1 1(P^1 - P^0) rate 1
        u_A user1 A zf_orth(user2 A) 1/2(P^0) rate 0
        v_A user2 A zf_orth(user1 A) 1/2(P^0) rate 0
        xc_B common B basis_e1 1(P^1 - P^0) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^0) rate 0
        u_B user1 B zf_orth(user2 B) 1/2(P^0) rate 0
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_A user1:B:u_B user2:B:v_B user2:A:v_A
        split xc_A=1.0 xc_B=0.0
    """,
    ("optimal-unmatched", "unmatched", "1", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^0) rate 0
        u_0 user1 A aligned(user2 A) 1/2(P^1 - P^0) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^0) rate 0
        u_0 user1 B aligned(user1 B) 1/2(P^1 - P^0) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_0 user1:A:u_A user1:B:u_B user2:B:u_0 user2:B:v_B user2:A:v_A
        split none
    """,
    ("optimal-unmatched", "unmatched", "1", "1"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        plan user1:A:u_A user1:B:u_B user2:B:v_B user2:A:v_A
        split none
    """,
    ("matched-optimal", "matched", "4/5", "1/2"): """
        xc_A common A basis_e1 1(P^1 - P^4/5) rate 1/5
        u_A user1 A zf_orth(user2 A) 1/2(P^4/5) rate 4/5
        v_A user2 A zf_orth(user1 A) 1/2(P^4/5) rate 4/5
        xc_B common B basis_e1 1(P^1 - P^1/2) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1/2) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1/2) rate 1/2
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_A user2:A:v_A user1:B:u_B user2:B:v_B
        split xc_A=1.0 xc_B=0.0
    """,
    ("matched-optimal", "matched", "1/2", "0"): """
        xc_A common A basis_e1 1(P^1 - P^1/2) rate 1/2
        u_A user1 A zf_orth(user2 A) 1/2(P^1/2) rate 1/2
        v_A user2 A zf_orth(user1 A) 1/2(P^1/2) rate 1/2
        xc_B common B basis_e1 1(P^1) rate 1
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_A user2:A:v_A
        split xc_A=1.0 xc_B=0.0
    """,
    ("matched-optimal", "matched", "1", "1/2"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        xc_B common B basis_e1 1(P^1 - P^1/2) rate 1/2
        u_B user1 B zf_orth(user2 B) 1/2(P^1/2) rate 1/2
        v_B user2 B zf_orth(user1 B) 1/2(P^1/2) rate 1/2
        plan user1:B:xc_B user2:B:xc_B user1:A:u_A user2:A:v_A user1:B:u_B user2:B:v_B
        split xc_B=0.0
    """,
    ("matched-optimal", "matched", "3/5", "3/5"): """
        xc_A common A basis_e1 1(P^1 - P^3/5) rate 2/5
        u_A user1 A zf_orth(user2 A) 1/2(P^3/5) rate 3/5
        v_A user2 A zf_orth(user1 A) 1/2(P^3/5) rate 3/5
        xc_B common B basis_e1 1(P^1 - P^3/5) rate 2/5
        u_B user1 B zf_orth(user2 B) 1/2(P^3/5) rate 3/5
        v_B user2 B zf_orth(user1 B) 1/2(P^3/5) rate 3/5
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B user1:A:u_A user2:A:v_A user1:B:u_B user2:B:v_B
        split xc_A=1.0 xc_B=0.0
    """,
    ("matched-optimal", "matched", "0", "0"): """
        xc_A common A basis_e1 1(P^1) rate 1
        xc_B common B basis_e1 1(P^1) rate 1
        plan user1:A:xc_A user1:B:xc_B user2:A:xc_A user2:B:xc_B
        split xc_A=1.0 xc_B=0.0
    """,
    ("matched-optimal", "matched", "1", "0"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        xc_B common B basis_e1 1(P^1) rate 1
        plan user1:B:xc_B user2:B:xc_B user1:A:u_A user2:A:v_A
        split xc_B=0.0
    """,
    ("matched-optimal", "matched", "1", "1"): """
        u_A user1 A zf_orth(user2 A) 1/2(P^1) rate 1
        v_A user2 A zf_orth(user1 A) 1/2(P^1) rate 1
        u_B user1 B zf_orth(user2 B) 1/2(P^1) rate 1
        v_B user2 B zf_orth(user1 B) 1/2(P^1) rate 1
        plan user1:A:u_A user2:A:v_A user1:B:u_B user2:B:v_B
        split none
    """,
}


@pytest.mark.parametrize("beta,alpha", FACES)
@pytest.mark.parametrize("scheme,kind", SCHEME_SCENARIOS)
def test_each_builder_is_pinned_on_every_face(scheme, kind, beta, alpha):
    q = QualityPair(Fraction(beta), Fraction(alpha))
    d = sch.build_descriptor(scheme, q, Scenario(kind))
    want = FDMA if scheme == "fdma" else PINNED[scheme, kind, beta, alpha]
    assert _render(d) == textwrap.dedent(want).strip().splitlines()
    assert d.name == scheme
    if scheme != "fdma":
        assert (d.scenario, d.quality) == (kind, q)
    for s in d.symbols:
        exponents = [s.power.hi, s.rate_exponent] + ([] if s.power.lo is None else [s.power.lo])
        assert all(isinstance(e, numbers.Rational) for e in exponents), s


def test_every_scheme_and_face_is_pinned():
    assert sorted(PINNED) == sorted((scheme, kind, beta, alpha)
                                    for scheme, kind in SCHEME_SCENARIOS if scheme != "fdma"
                                    for beta, alpha in FACES)


def _payloads_by_scan(d):
    """The first instance of each payload by a scan of ``d.symbols``, in order of first
    appearance: the oracle of ``SchemeDescriptor.payloads``, which reads the table's rows."""
    out = {}
    for s in d.symbols:
        out.setdefault(s.id, s)
    return out


#: The linear SNR of the received-power comparison (40 dB).
P = 1e4


@functools.cache
def _cells(trials):
    """Cells with no zero estimate, so every precoder of every face has a direction.

    The powers of a descriptor's links depend only on the cells they are
    given, not on the qualities the descriptor was built for."""
    return ch.sample_ladder_cells(7, QualityPair(0.8, 0.5), UNMATCHED, [P], trials)


@pytest.mark.parametrize("beta,alpha", FACES)
@pytest.mark.parametrize("scheme,kind", SCHEME_SCENARIOS)
def test_each_face_reads_one_decode_table(scheme, kind, beta, alpha):
    exact = QualityPair(Fraction(beta), Fraction(alpha))
    d = sch.build_descriptor(scheme, exact, Scenario(kind))
    floats = sch.build_descriptor(scheme, QualityPair(float(exact.beta), float(exact.alpha)),
                                  Scenario(kind))
    assert floats.table is d.table
    assert list(d.payloads().items()) == list(_payloads_by_scan(d).items())
    links = _reference_links(d)  # (instance, receiving user), by the plan walk
    for trials in (1, 100, 4096):
        cells = _cells(trials)
        walk = mc._walk_arrays(d.table)
        powers = mc._link_powers(cells, d.table, walk, mc._power_table(d.symbols, walk, [P]))
        for n, (i, user) in enumerate(links):
            got = mc.received_power(cells[:, 0], d.symbols[i], user, P)
            assert got.shape == (trials,) and np.array_equal(got, powers[n, 0]), (trials, n)


@pytest.mark.parametrize("beta,alpha", FACES)
@pytest.mark.parametrize("scheme,kind", SCHEME_SCENARIOS)
def test_the_nulled_links_are_those_zero_forced_on_their_own_cell(scheme, kind, beta, alpha):
    d = sch.build_descriptor(scheme, QualityPair(Fraction(beta), Fraction(alpha)), Scenario(kind))
    nulled = d.table.nulled
    assert type(nulled) is tuple and all(type(v) is bool for v in nulled)
    assert list(nulled) == [
        _zero_forced_on(d.symbols[i].precoder, cell_index(user, d.symbols[i].slot))
        for i, user in _reference_links(d)]


def test_a_one_step_plan_naming_an_unknown_user_is_refused():
    sym = sch.fdma_descriptor().symbols[0]
    with pytest.raises(ValueError, match="decode step names unknown user 'user3'"):
        mc.received_power(_cells(1)[:, 0], sym, "user3", P)


# ---------------------------------------------------------------------------
# face templates: build_descriptor evaluates one template per face


def _typed(x):
    """x with its type and every bit of it: repr tells -0.0 from 0.0 and round-trips."""
    return None if x is None else (type(x), repr(x))


def _fields(d):
    """Every field of d, each exponent as ``_typed``."""
    return (d.name, d.scenario, d.quality, d.decode_plan, dict(d.common_split),
            [(s.id, s.owner, s.slot, s.precoder, _typed(s.power.coeff), _typed(s.power.hi),
              _typed(s.power.lo), _typed(s.rate_exponent)) for s in d.symbols])


def _assert_builds_match_the_builders(pairs):
    for beta, alpha in pairs:
        q = QualityPair(beta, alpha)
        for scheme, kind in SCHEME_SCENARIOS:
            built = sch.build_descriptor(scheme, q, Scenario(kind))
            oracle = sch.SCHEMES[scheme].build(q, Scenario(kind))  # the builder, every check run
            assert _fields(built) == _fields(oracle), (scheme, kind, beta, alpha)
            assert built.quality is oracle.quality


def test_builds_equal_the_builders_on_the_verify_grid():
    grid = [Fraction(i, 20) for i in range(21)]
    _assert_builds_match_the_builders([(b, a) for b in grid for a in grid if a <= b])


def test_builds_equal_the_builders_on_the_pinned_faces():
    _assert_builds_match_the_builders([(Fraction(b), Fraction(a)) for b, a in FACES])


def _ulp(x, toward):
    return float(np.nextafter(x, toward))


#: Points 1 ulp off each edge and corner, on the faces in denormals, and -0.0.
_NEAR_FACES = [
    (0.5, _ulp(0, 1)), (0.5, _ulp(0.5, 0)), (_ulp(0.5, 1), 0.5), (_ulp(1, 0), 0.5),
    (_ulp(0, 1), 0.0), (_ulp(0, 1), _ulp(0, 1)), (_ulp(1, 0), 0.0), (1.0, _ulp(0, 1)),
    (_ulp(1, 0), _ulp(1, 0)), (1.0, _ulp(1, 0)), (_ulp(1, 0), _ulp(_ulp(1, 0), 0)),
    (5e-324, 0.0), (5e-324, 5e-324), (1.0, 5e-324), (2.2250738585072014e-308, 1e-310),
    (0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (-0.0, -0.0), (0.5, -0.0), (1.0, -0.0),
]


def test_builds_equal_the_builders_on_floats_near_every_face():
    rng = np.random.default_rng(2013)
    pairs = [(float(hi), float(lo)) for lo, hi in np.sort(rng.uniform(0, 1, (200, 2)), axis=1)]
    _assert_builds_match_the_builders(pairs + _NEAR_FACES)


def test_builds_keep_other_number_types():
    """ints, numpy floats and a mixed pair keep the builder's types too."""
    _assert_builds_match_the_builders([
        (1, 0), (1, 1), (0, 0), (np.float64(0.8), np.float64(0.5)), (np.float64(1.0), 0.25),
        (Fraction(1, 2), 0.25), (Fraction(1, 2), 0.5), (1, Fraction(1, 3))])


def test_a_shared_descriptor_hands_out_no_mutable_state():
    q1, q2 = QualityPair(0.8, 0.5), QualityPair(0.7, 0.2)
    for scheme, kind in SCHEME_SCENARIOS:
        d1, d2 = (sch.build_descriptor(scheme, q, Scenario(kind)) for q in (q1, q2))
        before = dict(d2.common_split)
        with pytest.raises(TypeError):
            d1.common_split["xc_A"] = 0.5
        assert dict(d2.common_split) == before
        assert type(d1.symbols) is tuple and type(d1.decode_plan) is tuple
        with pytest.raises(AttributeError):
            d1.symbols[0].power.hi = 0.0
    # fdma's descriptor does not depend on q, so every build shares it whole.
    assert (sch.build_descriptor("fdma", q1, UNMATCHED)
            is sch.build_descriptor("fdma", q2, UNMATCHED))


def _no_u0(q, scenario):
    """optimal-unmatched without u_0 and its cross private at P^alpha/2: each
    subband's power telescopes to P only where alpha = beta."""
    b, a = q.beta, q.alpha
    symbols = [s for slot in SUBBANDS for s in (
        sch._common(slot, b), sch._private("user1", slot, a, a), sch._private("user2", slot, a, a))]
    plan = sch._decode_commons(symbols) + [sch._decode(s) for s in symbols if s.owner != "common"]
    return sch.SchemeDescriptor("no-u0", "unmatched", q, tuple(symbols), tuple(plan))


def test_a_template_whose_ledger_does_not_telescope_on_its_face_is_refused():
    # On the edge alpha = beta, and at each of its points, the ledger telescopes.
    assert sch._template(_no_u0, "unmatched", sch.FACES["edge alpha = beta"]).name == "no-u0"
    sch.check_power_identity(_no_u0(QualityPair(Fraction(3, 5), Fraction(3, 5)), None))
    # Inside the triangle it does not, although it does at every point with alpha = beta.
    with pytest.raises(ValueError, match="power identity violated in slot 'A' of 'no-u0'"):
        sch._template(_no_u0, "unmatched", sch.FACES["interior"])


def _split_at_half(q, scenario):
    """fdma with a branch that is not constant on a face."""
    return sch.fdma_descriptor() if q.beta > Fraction(1, 2) else sch.fdma_descriptor()


def test_a_builder_branch_that_is_not_constant_on_its_face_is_refused():
    with pytest.raises(ValueError, match="changes sign on the face"):
        sch._template(_split_at_half, "unmatched", sch.FACES["interior"])
    assert sch._template(_split_at_half, "unmatched", sch.FACES["edge beta = 1"]).name == "fdma"
