"""One sound enclosure ``lower ≤ p ≤ upper`` of a probability.

Past the point where inference stays exact, every answer the system gives
is an interval that soundly contains the true probability: the dissociation
folds (:mod:`repro.dissociation`), Olteanu-Huang-Koch truncated expansion
(:mod:`repro.lineage.approx_bounds`) and every rung of the degradation
ladder (:mod:`repro.resilience.ladder`) return this one record. An exact
value is the zero-width enclosure with ``exact=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Enclosure"]

#: Float noise an enclosure may carry past ``[0, 1]``.
_NOISE = 1e-12

#: Methods whose enclosure holds only with confidence ``1 - δ``.
_SAMPLED = frozenset({"karp-luby", "forward"})


@dataclass(frozen=True)
class Enclosure:
    """A sound enclosure of one probability, with what produced it.

    ``method`` names the producer (``"exact"``, ``"dissociation"``,
    ``"bounds"``, or another ladder rung); ``exact`` is true when the value
    is not approximate — an OBDD fallback is degraded yet exact. ``steps``
    is the ladder's provenance (:class:`~repro.resilience.ladder
    .DegradationStep` records); every answer of one component shares one
    ``steps`` object.

    Examples
    --------
    >>> e = Enclosure(0.2, 0.4, "bounds", False)
    >>> round(e.width, 12), round(e.midpoint, 12), e.contains(0.3)
    (0.2, 0.3, True)
    >>> e.scaled(0.5).upper
    0.2
    >>> e.intersect(Enclosure(0.3, 0.6, "dissociation", False)).lower
    0.3
    >>> Enclosure.clamped(-0.1, 1.2, "karp-luby", False)
    Enclosure(lower=0.0, upper=1.0, method='karp-luby', exact=False, steps=())
    >>> Enclosure(0.5, 0.4, "bounds", False)
    Traceback (most recent call last):
    ValueError: invalid enclosure [0.5, 0.4]
    """

    lower: float
    upper: float
    method: str
    exact: bool
    steps: tuple = ()

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not -_NOISE <= self.lower <= self.upper <= 1.0 + _NOISE:
            raise ValueError(f"invalid enclosure [{self.lower}, {self.upper}]")

    @classmethod
    def clamped(
        cls, lower: float, upper: float, method: str,
        exact: bool | None = None, steps: tuple = (),
    ) -> Enclosure:
        """``[lower, upper]`` clipped into ``[0, 1]`` with ``lower ≤ upper``
        — the one guard against folds and estimators that overshoot by
        float noise. ``exact=None`` means exact iff the result has zero
        width."""
        upper = min(1.0, max(0.0, float(upper)))
        lower = min(max(0.0, float(lower)), upper)
        if exact is None:
            exact = lower == upper
        return cls(lower, upper, method, exact, steps)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        """The point estimate: the exact value when ``lower == upper``."""
        return (self.lower + self.upper) / 2.0

    @property
    def degraded(self) -> bool:
        """True when something other than plain exact inference answered."""
        return self.method != "exact"

    def contains(self, value: float, tolerance: float = 1e-9) -> bool:
        """Is *value* inside the enclosure (up to float noise)?"""
        return self.lower - tolerance <= value <= self.upper + tolerance

    def scaled(self, p: float) -> Enclosure:
        """The enclosure of ``p · Pr(X)``: an event of probability *p*
        independent of ``X`` scales it linearly. Keeps the ``steps``
        object."""
        return Enclosure(
            p * self.lower, p * self.upper, self.method, self.exact, self.steps
        )

    def intersect(self, prior: Enclosure | None) -> Enclosure:
        """This enclosure narrowed by a sound *prior*: both hold, so their
        intersection does.

        Should the float intersection be empty, a sampled enclosure (sound
        only with confidence ``1 - δ``) yields to the prior's bounds;
        otherwise the narrower of the two bounds is kept. The result keeps
        this record's method, exactness and steps.
        """
        if prior is None:
            return self
        lower = max(self.lower, prior.lower)
        upper = min(self.upper, prior.upper)
        if lower > upper:
            keep = (
                prior
                if self.method in _SAMPLED or prior.width < self.width
                else self
            )
            lower, upper = keep.lower, keep.upper
        return Enclosure(lower, upper, self.method, self.exact, self.steps)

    def as_dict(self) -> dict:
        return {
            "probability": self.midpoint,
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "exact": self.exact,
        }
