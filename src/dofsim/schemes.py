"""Declarative transmission-scheme descriptors for the two-subband downlink.

A scheme is described by *what is sent*, not by code: a list of precoded
symbols, each sent in one of the two equal-width subbands of
``model.SUBBANDS`` with a power term of the form coeff * (P^hi - P^lo)
and a target rate exponent, and an ordered decode plan per user.  Every
receiver runs successive interference cancellation (SIC): a step sees as
interference exactly the same-subband symbols its user has not decoded
yet, so the plan's order is the whole SIC schedule.  Each descriptor
carries a ``DecodeTable`` of plain tuples, built by ``_compile`` alone:
per-link columns of each link's receiving cell, precoder, symbol and
whether it is nulled, each link held once, each step's links, and each
payload's first instance and decoding steps.  Both walks fill one value
per link in one pass over the columns and gather it per step:
``static_achievability_check`` over exact high-SNR exponents, and the
Monte Carlo link layer over linear received powers, through index arrays
that ``linkmc`` builds from the table.  A descriptor compiles its own
table, except that every ``build_descriptor`` result shares the table of
its face template.

Builders are provided for the five strategies under study:

* ``fdma_descriptor``             -- one full-power symbol per subband.
* ``zfbf_descriptor``             -- plain zero-forcing beamforming.
* ``s3_descriptor``               -- two private symbols plus a repeated
                                     overheard symbol, no common layer.
* ``optimal_unmatched_descriptor``-- rate-splitting with a repeated
                                     aligned symbol (unmatched CSIT).
* ``matched_descriptor``          -- per-subband rate-splitting (matched
                                     CSIT).

The builders share two layer constructors: ``_common(slot, j)``, a common
message at P - P^j that both users decode first, and ``_private(owner, slot,
power, rate)``, a private symbol zero-forced against the other user's
estimate and decoded by its owner; s3 and the optimal unmatched scheme add
the repeated aligned symbol u_0.

``SCHEMES`` is the single home of each scheme's builder and its scenarios,
and ``_scheme`` its one gate: ``build_descriptor`` and ``analytic_sum_dof``
read through it, so both refuse an unknown scheme or scenario with the
same message.
Builders keep the number type of ``q``, and every branch of theirs is
constant on each face of the quality triangle, where every exponent is
affine in (beta, alpha).  So ``build_descriptor`` runs each builder once
per face, on ``_Affine`` forms that compare as functions on the face, and
that template's checks hold on the whole face; a build evaluates its forms
at q, in q's number type.  ``FACES`` names the seven faces by the corners
of their closures, and ``face_of`` gives a point's face.  The closed-form
sum DoF is read off the interior template, and the achievability audit runs
on rational builds, exactly.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .model import CELLS, SCENARIO_KINDS, SUBBANDS, USERS, QualityPair, Scenario, cell_index

OWNERS = USERS + ("common",)
PRECODER_KINDS = ("basis_e1", "zf_orth", "aligned")


class AchievabilityError(Exception):
    """A decode step asks for more rate than its SINR exponent supports."""


@dataclass(frozen=True)
class Precoder:
    """Transmit direction of one symbol.

    basis_e1 sends on the first antenna; zf_orth sends orthogonally to the
    referenced user's channel estimate; aligned sends along it.
    """

    kind: str
    user: Optional[str] = None
    subband: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in PRECODER_KINDS:
            raise ValueError(f"precoder kind must be one of {PRECODER_KINDS}, got {self.kind!r}")
        if self.kind == "basis_e1":
            if self.user is not None or self.subband is not None:
                raise ValueError("basis_e1 takes no estimate reference")
        else:
            cell_index(self.user, self.subband)  # raises on an unknown cell


def basis_e1() -> Precoder:
    return Precoder("basis_e1")


def zf_orth(user: str, subband: str) -> Precoder:
    return Precoder("zf_orth", user, subband)


def aligned(user: str, subband: str) -> Precoder:
    return Precoder("aligned", user, subband)


@dataclass(frozen=True)
class PowerTerm:
    """Symbol power coeff * (P^hi - P^lo), or coeff * P^hi when lo is None."""

    coeff: Union[int, Fraction]  # kept as given, so that the power ledger sums it exactly
    hi: float
    lo: Optional[float] = None

    def __post_init__(self) -> None:
        if type(self.coeff) not in (int, Fraction):
            raise ValueError(f"power coefficient must be an int or a Fraction, got {self.coeff!r}")
        if self.coeff <= 0:
            raise ValueError(f"power coefficient must be positive, got {self.coeff}")
        if not 0 <= self.hi <= 1:
            raise ValueError(f"power exponent must lie in [0, 1], got hi={self.hi}")
        if self.lo is not None and not self.lo < self.hi:
            raise ValueError(f"need lo < hi in a power term, got hi={self.hi}, lo={self.lo}")

    @functools.cached_property
    def _scale(self) -> float:
        return float(self.coeff)

    def value(self, p: float) -> float:
        base = p ** self.hi - (p ** self.lo if self.lo is not None else 0.0)
        return self._scale * base

    def ledger(self) -> List[Tuple[float, Fraction]]:
        """Signed (exponent, coefficient) entries for the telescoping check."""
        entries = [(self.hi, self.coeff)]
        if self.lo is not None:
            entries.append((self.lo, -self.coeff))
        return entries


@dataclass(frozen=True)
class SymbolSpec:
    """One transmit instance of a symbol in one slot.

    A payload repeated across slots (the overheard symbol u_0) appears as
    two instances sharing the same id; its rate counts once.
    """

    id: str
    owner: str
    slot: str
    precoder: Precoder
    power: PowerTerm
    rate_exponent: float

    def __post_init__(self) -> None:
        if self.owner not in OWNERS:
            raise ValueError(f"symbol owner must be one of {OWNERS}, got {self.owner!r}")
        if self.slot not in SUBBANDS:
            raise ValueError(f"symbol slot must be one of {SUBBANDS}, got {self.slot!r}")
        if not 0 <= self.rate_exponent:  # also rejects nan
            raise ValueError(f"rate exponent must be nonnegative, got {self.rate_exponent}")


@dataclass(frozen=True)
class DecodeStep:
    """Decode `symbol` at `user` in `slot`, after the user's earlier steps."""

    user: str
    slot: str
    symbol: str


class DecodeTable(NamedTuple):
    """A decode plan, resolved to tuples of plain facts.

    Its links are (symbol instance, receiving user) pairs, numbered in
    order of first use and held once each; ``cell``, ``precoder``,
    ``symbol`` and ``nulled`` are their columns, one entry per link.  A
    rate table built on it has one column per step, in plan order.
    """

    precoders: Tuple[Precoder, ...]  # each direction the links use once, in order of first use
    cell: Tuple[int, ...]  # per link: its receiving cell, in ``model.CELLS`` order
    precoder: Tuple[int, ...]  # per link: its row of ``precoders``
    symbol: Tuple[int, ...]  # per link: its symbol instance
    #: per link: nulled, its precoder zf_orth on its own receiving cell's
    #: estimate ĥ, so that ĥ^H w = 0 exactly and the link reads e^H w
    nulled: Tuple[bool, ...]
    signal: Tuple[int, ...]  # per step: its signal link
    interference: Tuple[Tuple[int, ...], ...]  # per step: its interfering links, in instance order
    #: (id, index of its first instance, indices of the steps that decode
    #: it) per payload, in order of first appearance
    payloads: Tuple[Tuple[str, int, Tuple[int, ...]], ...]


def _compile(symbols: Sequence[SymbolSpec], plan: Sequence[DecodeStep]) -> DecodeTable:
    """Resolve a decode plan against its symbol instances; raises on a bad reference.

    A step's interference is every same-slot instance other than its target
    whose symbol the step's user has not decoded in an earlier step.  The
    table reads only the instances' (id, slot, precoder) and the plan.
    """
    index: Dict[Tuple[str, str], int] = {}
    first: Dict[str, int] = {}  # symbol id -> its first instance
    by_slot: Dict[str, List[Tuple[str, int]]] = {}  # (symbol id, instance), descriptor order
    for i, sym in enumerate(symbols):
        if index.setdefault((sym.id, sym.slot), i) != i:
            raise ValueError(f"duplicate instance of symbol {sym.id!r} in slot {sym.slot!r}")
        first.setdefault(sym.id, i)
        by_slot.setdefault(sym.slot, []).append((sym.id, i))
    decoded: Dict[str, Dict[str, int]] = {u: {} for u in USERS}  # symbol -> step
    links: Dict[Tuple[int, str], int] = {}  # (instance, user) -> link index
    steps: List[List[int]] = []  # per step: its signal link, then its interfering links
    for step in plan:
        user, symbol, slot = step.user, step.symbol, step.slot
        if user not in USERS:
            raise ValueError(f"decode step names unknown user {user!r}")
        target = index.get((symbol, slot))
        if target is None:
            raise ValueError(
                f"decode plan references {symbol!r} in slot {slot!r}, "
                "which is not transmitted there"
            )
        done = decoded[user]
        if symbol in done:
            raise ValueError(f"{user} decodes {symbol!r} twice")
        row = [links.setdefault((target, user), len(links))]
        for sym_id, i in by_slot[slot]:
            if sym_id != symbol and sym_id not in done:
                row.append(links.setdefault((i, user), len(links)))
        done[symbol] = len(steps)
        steps.append(row)
    payloads = tuple(
        (sym_id, i, tuple(decoded[u][sym_id] for u in USERS if sym_id in decoded[u]))
        for sym_id, i in first.items()
    )
    undecoded = [sym_id for sym_id, _, columns in payloads if not columns]
    if undecoded:
        raise ValueError(f"symbols {sorted(undecoded)} are never decoded")
    rows: Dict[Precoder, int] = {}  # precoder -> its row of ``precoders``
    per_link = [(cell_index(user, symbols[i].slot),
                 rows.setdefault(symbols[i].precoder, len(rows)), i) for i, user in links]
    nulled = tuple(symbols[i].precoder == zf_orth(*CELLS[c]) for c, _, i in per_link)
    return DecodeTable(tuple(rows), *zip(*per_link), nulled, tuple(row[0] for row in steps),
                       tuple(tuple(row[1:]) for row in steps), payloads)


@dataclass(frozen=True)
class SchemeDescriptor:
    name: str
    scenario: Optional[str]
    quality: Optional[QualityPair]
    symbols: Tuple[SymbolSpec, ...]
    decode_plan: Tuple[DecodeStep, ...]
    #: common symbol id -> fraction of its rate credited to user1
    common_split: Mapping[str, float] = field(default_factory=dict)
    #: The compiled decode plan; ``build_descriptor`` shares its face template's.
    table: DecodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_power_identity(self)
        object.__setattr__(self, "table", _compile(self.symbols, self.decode_plan))
        payloads = self.payloads()
        for sym in self.symbols:
            first = payloads[sym.id]
            if sym.owner != first.owner or sym.rate_exponent != first.rate_exponent:
                raise ValueError(f"instances of {sym.id!r} disagree on owner or rate")
        # By default a common payload sent first in subband A goes to user1, in B to user2.
        split = {sym_id: float(sym.slot == "A") for sym_id, sym in payloads.items()
                 if sym.owner == "common"}
        for sym_id in self.common_split:
            if sym_id not in split:
                raise ValueError(
                    f"common split names {sym_id!r}, which is not a common payload of "
                    f"{self.name!r}; its common payloads are {sorted(split)}")
        split.update(self.common_split)
        for sym_id, share in split.items():
            if not 0 <= share <= 1:
                raise ValueError(f"common split for {sym_id!r} must lie in [0, 1], got {share}")
        object.__setattr__(self, "common_split", MappingProxyType(split))  # read-only: shared

    # -- accessors ---------------------------------------------------------

    def payloads(self) -> Dict[str, SymbolSpec]:
        """First instance of each payload, keyed by symbol id, in order of first appearance.

        A repeated payload's instances agree on owner and rate exponent.
        """
        return {sym_id: self.symbols[first] for sym_id, first, _ in self.table.payloads}


def power_ledger(d: SchemeDescriptor, slot_id: str) -> Dict[float, Fraction]:
    """Net (exponent -> coefficient) map of one slot's transmit power.

    The per-slot full-power identity holds exactly when the ledger reduces
    to {1.0: 1}, i.e. the terms telescope to P for every P.
    """
    acc: Dict[float, Fraction] = {}
    for sym in (s for s in d.symbols if s.slot == slot_id):
        for exponent, coeff in sym.power.ledger():
            acc[exponent] = acc.get(exponent, 0) + coeff
    return {e: c for e, c in acc.items() if c != 0}


def check_power_identity(d: SchemeDescriptor) -> None:
    """Raise ValueError unless each subband's power terms telescope to P."""
    for slot_id in SUBBANDS:
        ledger = power_ledger(d, slot_id)
        if ledger != {1.0: Fraction(1)}:
            raise ValueError(
                f"power identity violated in slot {slot_id!r} of {d.name!r}: "
                f"summed terms are {ledger} instead of P"
            )


# -- descriptor builders ---------------------------------------------------

def _common(slot: str, j) -> SymbolSpec:
    """The common message ``xc_<slot>`` on top of a subband of quality j < 1:
    power P - P^j, rate exponent 1 - j; both users decode it first."""
    return SymbolSpec(f"xc_{slot}", "common", slot, basis_e1(), PowerTerm(1, 1, j), 1 - j)


def _private(owner: str, slot: str, power, rate) -> SymbolSpec:
    """owner's private symbol in slot (``u_<slot>`` for user1, ``v_<slot>`` for
    user2) at P^power/2, zero-forced against the other user's estimate there."""
    letter, other = ("u", "user2") if owner == "user1" else ("v", "user1")
    return SymbolSpec(f"{letter}_{slot}", owner, slot, zf_orth(other, slot),
                      PowerTerm(Fraction(1, 2), power), rate)


def _decode(sym: SymbolSpec) -> DecodeStep:
    """The step in which sym's owner decodes it, in its slot."""
    return DecodeStep(sym.owner, sym.slot, sym.id)


def _decode_commons(symbols: Sequence[SymbolSpec]) -> List[DecodeStep]:
    """Each user decodes every common message first, in descriptor order."""
    return [DecodeStep(user, s.slot, s.id) for user in USERS for s in symbols
            if s.owner == "common"]


def fdma_descriptor() -> SchemeDescriptor:
    """Subband A carries user1's symbol at full power, subband B user2's."""
    return SchemeDescriptor(
        name="fdma",
        scenario=None,
        quality=None,
        symbols=(
            SymbolSpec("x_A", "user1", "A", basis_e1(), PowerTerm(1, 1), 1),
            SymbolSpec("x_B", "user2", "B", basis_e1(), PowerTerm(1, 1), 1),
        ),
        decode_plan=(
            DecodeStep("user1", "A", "x_A"),
            DecodeStep("user2", "B", "x_B"),
        ),
    )


def zfbf_descriptor(q: QualityPair, scenario: Scenario) -> SchemeDescriptor:
    """Both users served in both subbands with half power and ZF precoding.

    Each symbol's rate exponent equals the CSIT quality of its decoder's
    own estimate in that subband: the co-scheduled symbol is zero-forced
    against that estimate, so the leakage floor sits at P^(1 - quality).
    """
    privates = [_private(user, slot, 1, scenario.quality(user, slot, q))
                for slot in SUBBANDS for user in USERS]
    return SchemeDescriptor(
        name="zfbf", scenario=scenario.kind, quality=q, symbols=tuple(privates),
        decode_plan=tuple(sorted(map(_decode, privates), key=lambda st: st.user)),
    )


def s3_descriptor(q: QualityPair) -> SchemeDescriptor:
    """Full-power scheme without a common layer (unmatched CSIT only).

    One repeated symbol u_0 rides along the interfering user's estimate in
    both subbands at half power and is decoded first by both users at rate
    exponent beta; once removed, v_A and u_B are interference-free and
    carry a full rate exponent each.
    """
    b = q.beta
    half = PowerTerm(Fraction(1, 2), 1)
    v_A, u_B = _private("user2", "A", 1, 1), _private("user1", "B", 1, 1)
    symbols = (
        SymbolSpec("u_0", "user1", "A", aligned("user2", "A"), half, b),
        v_A,
        SymbolSpec("u_0", "user1", "B", aligned("user1", "B"), half, b),
        u_B,
    )
    plan = (DecodeStep("user1", "A", "u_0"), _decode(u_B),
            DecodeStep("user2", "B", "u_0"), _decode(v_A))
    return SchemeDescriptor(
        name="s3", scenario="unmatched", quality=q,
        symbols=symbols, decode_plan=plan,
    )


def optimal_unmatched_descriptor(
    q: QualityPair, common_split: Optional[Mapping[str, float]] = None
) -> SchemeDescriptor:
    """Rate-splitting scheme achieving the unmatched-CSIT sum DoF.

    Per subband: a common message on top (power P - P^beta), the decoder's
    well-estimated private symbol zero-forced at P^beta/2, the cross
    private symbol at P^alpha/2, and the repeated symbol u_0 filling the
    (P^beta - P^alpha)/2 gap along the interfered estimate.  Symbols whose
    power term vanishes (common at beta = 1, u_0 at beta = alpha) are
    dropped along with their decode steps.
    """
    b, a = q.beta, q.alpha
    has_u0 = b > a
    symbols: List[SymbolSpec] = []
    privates = {}  # (owner, slot) -> symbol
    # In each subband the user whose estimate has quality beta, then the other.
    for slot, good, poor in (("A", "user1", "user2"), ("B", "user2", "user1")):
        privates[good, slot] = _private(good, slot, a, a)
        privates[poor, slot] = _private(poor, slot, b, b)
        if b < 1:
            symbols.append(_common(slot, b))
        symbols.append(privates[good, slot])
        if has_u0:
            symbols.append(SymbolSpec("u_0", "user1", slot, aligned(poor, slot),
                                      PowerTerm(Fraction(1, 2), b, a), b - a))
        symbols.append(privates[poor, slot])

    plan = _decode_commons(symbols)
    # Each user decodes u_0, then its own privates, in its well-estimated subband first.
    for user, slots in (("user1", "AB"), ("user2", "BA")):
        if has_u0:
            plan.append(DecodeStep(user, slots[0], "u_0"))
        plan.extend(_decode(privates[user, slot]) for slot in slots)

    return SchemeDescriptor(
        name="optimal-unmatched", scenario="unmatched", quality=q,
        symbols=tuple(symbols), decode_plan=tuple(plan),
        common_split=common_split or {},
    )


def matched_descriptor(
    q: QualityPair, common_split: Optional[Mapping[str, float]] = None
) -> SchemeDescriptor:
    """Per-subband rate-splitting achieving the matched-CSIT sum DoF.

    Subband A uses quality beta, subband B uses alpha: a common message at
    P - P^quality over two zero-forced private symbols at P^quality/2.  A
    subband with quality 0 collapses to the common message alone at full
    power (the private symbols would carry rate 0).
    """
    symbols: List[SymbolSpec] = []
    private_steps: List[DecodeStep] = []
    for slot, j in (("A", q.beta), ("B", q.alpha)):
        if j == 0:
            symbols.append(SymbolSpec(f"xc_{slot}", "common", slot, basis_e1(),
                                      PowerTerm(1, 1), 1))
            continue
        privates = [_private(user, slot, j, j) for user in USERS]
        symbols += ([_common(slot, j)] if j < 1 else []) + privates
        private_steps += map(_decode, privates)

    return SchemeDescriptor(
        name="matched-optimal", scenario="matched", quality=q,
        symbols=tuple(symbols), decode_plan=tuple(_decode_commons(symbols) + private_steps),
        common_split=common_split or {},
    )


class Scheme(NamedTuple):
    """A scheme's builder and the scenario kinds it is defined for (the
    first is implied when none is given)."""

    build: Callable[[QualityPair, Scenario], SchemeDescriptor]
    scenarios: Tuple[str, ...]


#: Every scheme by its command-line name.
SCHEMES = {
    "fdma": Scheme(lambda q, scenario: fdma_descriptor(), SCENARIO_KINDS),
    "zfbf": Scheme(zfbf_descriptor, SCENARIO_KINDS),
    "s3": Scheme(lambda q, scenario: s3_descriptor(q), ("unmatched",)),
    "optimal-unmatched": Scheme(lambda q, scenario: optimal_unmatched_descriptor(q),
                                ("unmatched",)),
    "matched-optimal": Scheme(lambda q, scenario: matched_descriptor(q), ("matched",)),
}

#: The scheme that reaches each scenario's optimal sum DoF.
OPTIMAL = {"unmatched": "optimal-unmatched", "matched": "matched-optimal"}

#: Scheme names accepted by build_descriptor (and the command line).
SCHEME_NAMES = tuple(sorted(SCHEMES))


def _scheme(scheme: str, kind: str) -> Scheme:
    """The row of a scheme defined for the scenario kind: the one scheme/scenario gate."""
    try:
        row = SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
        ) from None
    if kind not in row.scenarios:
        raise ValueError(f"scheme {scheme!r} requires the {row.scenarios[0]} scenario, "
                         f"got {kind!r}")
    return row


def build_descriptor(scheme: str, q: QualityPair, scenario: Scenario) -> SchemeDescriptor:
    """Build any named scheme; scheme names match the command-line ones.

    The template of q's face, evaluated at q: the same fields, bits and
    number types as the builder's own build on q."""
    return _at(_template(_scheme(scheme, scenario.kind).build, scenario.kind,
                         face_of(q.beta, q.alpha)), q)


# -- face templates --------------------------------------------------------


@functools.total_ordering
class _Affine:
    """c0 + cb*beta + ca*alpha, an exponent on one face of the quality triangle.

    It compares as a function on the face, by its values at the face's
    corners: a comparison holds at every point of the face or at none, or
    it raises.  So a builder run on forms takes the branches of every point
    of the face, and a power ledger keyed by forms telescopes on all of it.
    """

    def __init__(self, form, face):
        self.form, self.face = form, face

    def __repr__(self) -> str:
        return "({} + {}*beta + {}*alpha)".format(*self.form)

    def _zip(self, op, x):
        return _Affine(tuple(map(op, self.form, x.form if isinstance(x, _Affine) else (x, 0, 0))),
                       self.face)

    def __add__(self, x):
        return self._zip(operator.add, x)

    __radd__ = __add__

    def __sub__(self, x):
        return self._zip(operator.sub, x)

    def __rsub__(self, x):
        return self._zip(lambda c, d: d - c, x)

    def __truediv__(self, k):
        return self._zip(lambda c, _: Fraction(c) / k, 0)

    def _values(self) -> List:
        """The form's values at the face's corners."""
        c0, cb, ca = self.form
        return [c0 + cb * b + ca * a for b, a in self.face]

    def _sign(self, x) -> int:
        v = (self - x)._values()
        if min(v) < 0 < max(v):
            raise ValueError(f"{self!r} - {x!r} changes sign on the face with corners {self.face}")
        return (max(v) > 0) - (min(v) < 0)

    def __eq__(self, x):
        return self._sign(x) == 0 if isinstance(x, (_Affine, numbers.Real)) else NotImplemented

    def __lt__(self, x):
        return self._sign(x) < 0

    def __hash__(self) -> int:  # a form constant on the face hashes as that number
        v = self._values()
        return hash(v[0] if len(set(v)) == 1 else tuple(v))


#: The corners (beta, alpha) of the quality triangle, each opposite one of its
#: edges beta = 1, alpha = beta and alpha = 0.
_CORNERS = ((0, 0), (1, 0), (1, 1))
#: The triangle's seven faces by name, each as the corners of its closure.
FACES = {"interior": _CORNERS, "edge beta = 1": ((1, 0), (1, 1)),
         "edge alpha = beta": ((0, 0), (1, 1)), "edge alpha = 0": ((0, 0), (1, 0)),
         **{f"corner {v}": (v,) for v in _CORNERS}}


def face_of(beta, alpha) -> Tuple[Tuple[int, int], ...]:
    """The face (beta, alpha) lies on: the corners opposite the edges it is off."""
    return tuple(v for v, off in zip(_CORNERS, (beta != 1, alpha != beta, alpha != 0)) if off)


@functools.cache
def _template(build: Callable, kind: str, face: Tuple[Tuple[int, int], ...]) -> SchemeDescriptor:
    """build's descriptor on the face with the given corners, its exponents
    ``_Affine`` forms: its checks run once and hold on all the face."""
    return build(QualityPair(_Affine((0, 1, 0), face), _Affine((0, 0, 1), face)), Scenario(kind))


def _evaluate(form, beta, alpha):
    """c0 + (cb*beta + ca*alpha) without its zero terms, in the number type of beta and alpha."""
    c0, cb, ca = form
    if not (cb or ca):
        return c0
    slope = cb * beta + ca * alpha if cb and ca else cb * beta if cb else ca * alpha
    return c0 + slope if c0 else slope


def _like(obj, **changes):
    """A copy of a frozen dataclass instance with some fields changed, without
    its checks: the template ran them for every point of its face."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


def _at(t: SchemeDescriptor, q: QualityPair) -> SchemeDescriptor:
    """Template t evaluated at q, a point of its face, sharing every part that
    does not depend on q: the plan, the table, the read-only common split,
    constant power terms and symbols, and all of fdma's descriptor."""
    def at(x):
        return _evaluate(x.form, q.beta, q.alpha) if type(x) is _Affine else x

    symbols = []
    for sym in t.symbols:
        p, rate = sym.power, sym.rate_exponent
        if type(p.hi) is _Affine or type(p.lo) is _Affine:
            p = _like(p, hi=at(p.hi), lo=at(p.lo))
        if p is not sym.power or type(rate) is _Affine:
            sym = _like(sym, power=p, rate_exponent=at(rate))
        symbols.append(sym)
    if t.quality is None and all(map(operator.is_, symbols, t.symbols)):
        return t
    return _like(t, quality=None if t.quality is None else q, symbols=tuple(symbols))


# -- analytic DoF ----------------------------------------------------------


def analytic_sum_dof(strategy: str, q: QualityPair, scenario="unmatched"):
    """Closed-form sum DoF of a scheme of ``SCHEMES`` in a scenario it is defined for,
    or of the scenario's optimal scheme ("optimal"); exact on Fraction entries."""
    return analytic_sum_dof_at(strategy, q.beta, q.alpha, scenario)


@functools.cache
def _sum_dof_form(scheme: str, kind: str):
    """Exact (c0, cb, ca) with sum DoF c0 + cb*beta + ca*alpha, and its floats,
    read off the scheme's template inside the quality triangle: the sum DoF
    is continuous, so the form holds on the edges and corners too."""
    dof = sum_dof_exponent(_template(_scheme(scheme, kind).build, kind, _CORNERS))
    exact = tuple(map(Fraction, dof.form if isinstance(dof, _Affine) else (dof, 0, 0)))
    return exact, tuple(map(float, exact))


def analytic_sum_dof_at(strategy: str, beta, alpha, scenario="unmatched"):
    """``analytic_sum_dof`` on raw exponents, which may be numpy arrays.

    The caller keeps 0 <= alpha <= beta <= 1 elementwise.  The form is
    evaluated as a template's exponents are, exact on rational exponents;
    fdma's has neither beta nor alpha, so it gives a scalar.
    """
    kind = (scenario if isinstance(scenario, Scenario) else Scenario(scenario)).kind
    exact, floats = _sum_dof_form(OPTIMAL[kind] if strategy == "optimal" else strategy, kind)
    rational = isinstance(beta, numbers.Rational) and isinstance(alpha, numbers.Rational)
    return _evaluate(exact if rational else floats, beta, alpha)


def sum_dof_exponent(d: SchemeDescriptor) -> float:
    """Sum of payload rate exponents per channel use of the two-subband frame;
    repeated payloads count once."""
    return sum(d.symbols[first].rate_exponent for _, first, _ in d.table.payloads) / len(SUBBANDS)


def credit_users(d: SchemeDescriptor, per_payload: Mapping[str, float]) -> Tuple[float, float]:
    """Split per-payload amounts between the two users.

    A private payload counts for its owner; a common one is shared by
    ``d.common_split`` (user1's fraction).  Payloads are summed in
    ``d.table.payloads`` order.
    """
    u1 = u2 = 0.0
    for sym_id, first, _ in d.table.payloads:
        sym = d.symbols[first]
        r = per_payload[sym_id]
        if sym.owner == "common":
            share = d.common_split[sym_id]
            u1 += share * r
            u2 += (1.0 - share) * r
        elif sym.owner == "user1":
            u1 += r
        else:
            u2 += r
    return u1, u2


def user_dof_exponents(d: SchemeDescriptor) -> Tuple[float, float]:
    """Per-user analytic DoF pair implied by ownership and the common split."""
    u1, u2 = credit_users(d, {sym_id: d.symbols[first].rate_exponent
                              for sym_id, first, _ in d.table.payloads})
    return u1 / len(SUBBANDS), u2 / len(SUBBANDS)


# -- static achievability --------------------------------------------------


@dataclass(frozen=True)
class StepMargin:
    user: str
    slot: str
    symbol: str
    signal_exponent: Fraction
    interference_exponent: Fraction  # -inf when the step sees no interference
    margin: Fraction


def static_achievability_check(d: SchemeDescriptor) -> List[StepMargin]:
    """Verify every decode step's rate against its SINR exponent ladder.

    Walks ``d.table`` in max-plus: a link's received exponent is its power
    term's top exponent, lowered by its cell's CSIT quality exponent when
    ``d.table.nulled`` marks it, as a nulled link reads e^H w; a step of
    ``d.decode_plan`` gathers them (-inf when it has no interferer).  Its signal
    exponent minus the largest interference exponent (floored at the noise
    level 0) must cover the symbol's rate exponent, exactly: a descriptor
    built on float qualities is rejected with ValueError.  Raises
    AchievabilityError naming the first failing step; returns all step
    margins otherwise.
    """
    q = d.quality
    if q is not None and not all(isinstance(v, numbers.Rational) for v in (q.beta, q.alpha)):
        raise ValueError(f"{d.name}: the audit is exact; build the descriptor on Fraction "
                         f"qualities, not beta={q.beta!r}, alpha={q.alpha!r}")
    table = d.table
    exponents = []
    for c, i, nulled in zip(table.cell, table.symbol, table.nulled):
        e = d.symbols[i].power.hi
        if nulled:
            e -= Scenario(d.scenario).quality(*CELLS[c], q)
        exponents.append(e)
    payloads = d.payloads()
    report: List[StepMargin] = []
    for step, signal, row in zip(d.decode_plan, table.signal, table.interference):
        rate = payloads[step.symbol].rate_exponent
        interference = max([exponents[n] for n in row], default=-math.inf)
        sinr = exponents[signal] - max(interference, 0)
        margin = sinr - rate
        if margin < 0:
            raise AchievabilityError(
                f"{d.name}: step ({step.user}, slot {step.slot}, {step.symbol}) needs rate "
                f"exponent {rate} but the SINR exponent is {sinr}")
        report.append(StepMargin(step.user, step.slot, step.symbol, exponents[signal],
                                 interference, margin))
    return report
