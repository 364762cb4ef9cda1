"""Each scheme builder's exact descriptor on one quality pair per face of
the triangle 0 <= alpha <= beta <= 1: its symbols, decode plan and common
split, built on ``Fraction`` qualities.

Every builder branch (a common layer below beta = 1, the repeated u_0
above beta = alpha, a matched subband at quality 0 or 1) is constant on a
face, so these seven builds fix the shape of every build.  Each face's
builds also read one compiled decode table, which the last tests check.
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
from dofsim.channel import QualityPair, Scenario
from test_schemes import SCHEME_SCENARIOS

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
    return ch.sample_ladder_cells(7, QualityPair(0.8, 0.5), ch.UNMATCHED, [P], trials)


@pytest.mark.parametrize("beta,alpha", FACES)
@pytest.mark.parametrize("scheme,kind", SCHEME_SCENARIOS)
def test_each_face_reads_one_decode_table(scheme, kind, beta, alpha):
    exact = QualityPair(Fraction(beta), Fraction(alpha))
    d = sch.build_descriptor(scheme, exact, Scenario(kind))
    floats = sch.build_descriptor(scheme, QualityPair(float(exact.beta), float(exact.alpha)),
                                  Scenario(kind))
    assert floats.table is d.table
    assert list(d.payloads().items()) == list(_payloads_by_scan(d).items())
    links = list(zip(d.table.symbol.tolist(), d.table.cell.tolist()))
    for trials in (1, 100, 4096):
        cells = _cells(trials)
        powers = mc._link_powers(cells, d.symbols, d.table, [P])
        for n, (i, c) in enumerate(links):
            got = mc.received_power(cells[:, 0], d.symbols[i], ch.CELLS[c][0], P)
            assert got.shape == (trials,) and np.array_equal(got, powers[n, 0]), (trials, n)


def test_a_one_step_plan_naming_an_unknown_user_is_refused():
    sym = sch.fdma_descriptor().symbols[0]
    with pytest.raises(ValueError, match="decode step names unknown user 'user3'"):
        mc.received_power(_cells(1)[:, 0], sym, "user3", P)
