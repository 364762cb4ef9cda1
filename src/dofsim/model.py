"""The model's names: users, subbands, cells, CSIT quality pairs and scenarios.
It imports no numpy, so the exact layers load without it."""

import operator
from dataclasses import dataclass

USERS = ("user1", "user2")
SUBBANDS = ("A", "B")
SCENARIO_KINDS = ("unmatched", "matched")
#: (user, subband) cells in draw order, the order of a stack of cells.
CELLS = tuple((user, subband) for subband in SUBBANDS for user in USERS)


def cell_index(user: str, subband: str) -> int:
    """The position of the (user, subband) cell in ``CELLS``."""
    try:
        return CELLS.index((user, subband))
    except ValueError:
        raise ValueError(f"unknown cell ({user!r}, {subband!r}); the cells are {CELLS}") from None


@dataclass(frozen=True)
class QualityPair:
    """CSIT quality exponents (beta, alpha) with 0 <= alpha <= beta <= 1.

    The pair is ordered by convention: beta is the better quality.  Exact
    rational values (``fractions.Fraction``) are accepted and preserved so
    closed-form DoF expressions can be evaluated exactly.
    """

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0 <= self.alpha <= self.beta <= 1):
            raise ValueError(
                f"quality exponents need 0 <= alpha <= beta <= 1, got "
                f"beta={self.beta}, alpha={self.alpha}"
            )


@dataclass(frozen=True)
class Scenario:
    """CSIT allocation across (user, subband) cells.

    unmatched: user1 has quality beta in subband A and alpha in B, user2 the
    reverse (each user has one well-sounded subband).
    matched: both users have beta in subband A and alpha in B.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")

    def quality(self, user: str, subband: str, q: QualityPair):
        """CSIT quality exponent of `user`'s channel estimate in `subband`."""
        cell_index(user, subband)  # raises on an unknown cell
        if self.kind == "matched":
            return q.beta if subband == "A" else q.alpha
        return q.beta if (user == "user1") == (subband == "A") else q.alpha


UNMATCHED = Scenario("unmatched")
MATCHED = Scenario("matched")


def check_seed(seed) -> int:
    """The master seed as an int; a negative seed raises ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed
