"""What-if (sensitivity) analysis over offending tuples.

A pay-off of partial lineage the paper's framing makes natural: after one
evaluation, the answer probability is a *function of the offending tuples
only* — every other tuple has been folded into constants. Compiling each
answer's partial-lineage DNF into an OBDD (reusable under changed variable
probabilities, [17]) makes "what if this dirty tuple's probability were p?"
an O(OBDD) lookup instead of a re-evaluation:

* :class:`WhatIfAnalysis` compiles the answers once;
* :meth:`WhatIfAnalysis.probability` re-evaluates an answer under overridden
  offending-tuple probabilities;
* :meth:`WhatIfAnalysis.sensitivities` ranks the offending tuples by the
  swing ``Pr(answer | tuple certain) - Pr(answer | tuple absent)`` — which,
  by linearity of the multilinear lineage polynomial in each variable, is the
  answer's exact derivative in that tuple's probability.

The scalar OBDD walk is the *oracle*; the served path is the
:mod:`repro.circuit` engine. Each answer's OBDD lowers once into an
arithmetic circuit (cached structurally when a
:class:`~repro.circuit.CircuitCache` is attached), and then

* :meth:`WhatIfAnalysis.probability_batch` re-scores a whole batch of
  scenarios in one vectorized bottom-up sweep, and
* :meth:`WhatIfAnalysis.sensitivities` reads every tuple's exact swing off
  one gradient sweep (``method="circuit"``, the default when available)
  instead of 2·k scalar OBDD walks (``method="obdd"``, kept as the oracle).

Only *offending* tuples can be overridden: non-offending tuples were folded
into numeric constants during evaluation (that folding is the method's whole
point), so changing them requires re-evaluating the plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.circuit.ac import ArithmeticCircuit
from repro.circuit.compile import compile_obdd
from repro.circuit.rescore import ScenarioBatch, rescore, rescore_with_gradients
from repro.core.compile import partial_lineage_dnf
from repro.core.executor import EvaluationResult, OffendingTuple
from repro.core.network import EPSILON
from repro.db.schema import Row
from repro.errors import ReproError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.obdd import OBDD, build_obdd


@dataclass(frozen=True)
class Sensitivity:
    """Effect of one offending tuple on one answer."""

    tuple: OffendingTuple
    base_probability: float
    when_absent: float
    when_certain: float

    @property
    def swing(self) -> float:
        """``Pr(answer | present) - Pr(answer | absent)``: the exact partial
        derivative of the answer in this tuple's probability."""
        return self.when_certain - self.when_absent


class WhatIfAnalysis:
    """Compiled what-if evaluation for one result's answers.

    Parameters
    ----------
    result:
        The evaluation to analyse.
    circuit_cache:
        Optional :class:`~repro.circuit.CircuitCache`; compiled circuits of
        rename-equivalent lineages are shared through it across analyses.
    budget:
        Optional :class:`~repro.resilience.QueryBudget`, checkpointed during
        circuit compilation.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> from repro.core.executor import PartialLineageEvaluator
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> _ = db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    >>> result = PartialLineageEvaluator(db).evaluate_query(
    ...     parse_query("q() :- R(x), S(x,y), T(y)"), ["R", "S", "T"])
    >>> analysis = WhatIfAnalysis(result)
    >>> round(analysis.probability(()), 6)                    # base: 0.375
    0.375
    >>> off = result.conditioned_tuples[0]                    # R's tuple (1,)
    >>> round(analysis.probability((), {off: 1.0}), 6)        # R(1) certain
    0.75
    >>> analysis.probability_batch((), [{off: 0.0}, {off: 1.0}]).tolist()
    [0.0, 0.75]
    """

    def __init__(
        self,
        result: EvaluationResult,
        *,
        circuit_cache=None,
        budget=None,
    ) -> None:
        self.result = result
        self._circuit_cache = circuit_cache
        self._budget = budget
        self._node_of: dict[OffendingTuple, int] = {
            off: off.node for off in result.conditioned_tuples
        }
        self._var_of_node: dict[int, EventVar] = {}
        self._obdds: dict[int, tuple[OBDD, dict[EventVar, float]]] = {}
        self._dnfs: dict[int, DNF] = {}
        self._circuits: dict[int, ArithmeticCircuit] = {}
        #: per-lineage-node wall-clock compile seconds (OBDD + lowering);
        #: read by ``repro explain`` to expose cold-path cost
        self.compile_seconds: dict[int, float] = {}
        #: per-lineage-node compile provenance: ``"cache"`` when the circuit
        #: came out of the structural cache, ``"obdd"`` when lowered here
        self.circuit_sources: dict[int, str] = {}
        self._rows: dict[Row, tuple[int, float]] = {}
        for row, l, p in result.relation.items():
            self._rows[row] = (l, p)
            if l != EPSILON and l not in self._obdds:
                dnf, probs = partial_lineage_dnf(result.network, l)
                self._dnfs[l] = dnf
                self._obdds[l] = (build_obdd(dnf), probs)

    # ------------------------------------------------------------ resolution
    def _resolve(self, key) -> int:
        """Resolve an override key (OffendingTuple, node id, or (source, row))
        to a network node id."""
        if isinstance(key, OffendingTuple):
            return key.node
        if isinstance(key, int):
            return key
        if isinstance(key, tuple) and len(key) == 2:
            matches = [
                off.node
                for off in self.result.conditioned_tuples
                if off.source == key[0] and off.row == tuple(key[1])
            ]
            if len(matches) == 1:
                return matches[0]
            if not matches:
                raise ReproError(
                    f"{key!r} is not an offending tuple of this evaluation; "
                    f"only offending tuples can be overridden (others were "
                    f"folded into constants)"
                )
            raise ReproError(f"{key!r} matches several conditioned tuples")
        raise ReproError(f"cannot resolve override key {key!r}")

    def variable_for(self, key) -> EventVar:
        """The lineage variable of an override key.

        Public resolution for callers that build
        :class:`~repro.circuit.ScenarioBatch` matrices directly (the CLI's
        ``whatif --batch``, the rescore benchmark) instead of going through
        per-scenario override mappings.
        """
        return self._variable_for(self._resolve(key))

    def _variable_for(self, node: int) -> EventVar:
        """The compiled-DNF variable carrying the tuple's probability.

        Conditioning an ε-row creates a leaf; conditioning a symbolic row
        creates a single-parent noisy And gate whose *edge* holds the
        probability (see ``columnar.condition``).
        """
        from repro.core.network import NodeKind

        if self.result.network.kind(node) is NodeKind.LEAF:
            return EventVar("leaf", (node,))
        return EventVar("edge", (node, 0))

    def _lineage_of(self, row: Row) -> tuple[int, float]:
        row = tuple(row)
        if row not in self._rows:
            raise ReproError(f"{row!r} is not an answer of this evaluation")
        return self._rows[row]

    def _checked(self, value) -> float:
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ReproError(f"override probability {value} outside [0, 1]")
        return value

    def _override_vars(self, overrides: Mapping) -> dict[EventVar, float]:
        """Translate override keys to lineage variables, validating values."""
        out: dict[EventVar, float] = {}
        for key, value in overrides.items():
            node = self._resolve(key)
            out[self._variable_for(node)] = self._checked(value)
        return out

    # --------------------------------------------------------------- circuits
    def circuit_for(self, row: Row) -> ArithmeticCircuit | None:
        """The compiled arithmetic circuit of answer *row*'s lineage.

        ``None`` for answers with constant lineage (nothing to re-score).
        The OBDD built at construction lowers once per lineage node; with a
        :class:`~repro.circuit.CircuitCache` attached, rename-equivalent
        lineages (other answers, other instances) skip even that.
        """
        l, _ = self._lineage_of(row)
        if l == EPSILON:
            return None
        circuit = self._circuits.get(l)
        if circuit is not None:
            return circuit
        obdd, probs = self._obdds[l]
        dnf = self._dnfs[l]
        started = time.perf_counter()
        source = "obdd"
        if self._circuit_cache is not None:
            circuit = self._circuit_cache.get(dnf, probs)
            if circuit is not None:
                source = "cache"
        if circuit is None:
            circuit = compile_obdd(obdd, probs)
            if self._circuit_cache is not None:
                self._circuit_cache.put(dnf, probs, circuit)
        self.compile_seconds[l] = time.perf_counter() - started
        self.circuit_sources[l] = source
        self._circuits[l] = circuit
        return circuit

    # ------------------------------------------------------------- evaluation
    def probability(self, row: Row, overrides: Mapping | None = None) -> float:
        """Probability of answer *row* with offending-tuple overrides applied.

        Override keys may be :class:`OffendingTuple` instances (from
        ``result.conditioned_tuples``), raw node ids, or ``(source, row)``
        pairs; values are the hypothetical probabilities. This is the scalar
        OBDD oracle; batches should go through :meth:`probability_batch`.
        """
        l, p = self._lineage_of(row)
        if l == EPSILON:
            return p
        obdd, base_probs = self._obdds[l]
        if not overrides:
            return p * obdd.probability(base_probs)
        probs = dict(base_probs)
        for var, value in self._override_vars(overrides).items():
            if var not in probs:
                # the tuple offends elsewhere; this answer does not depend on it
                continue
            probs[var] = value
        return p * obdd.probability(probs)

    def probability_batch(
        self,
        row: Row,
        scenarios: ScenarioBatch | Iterable[Mapping],
    ) -> np.ndarray:
        """Answer probabilities under a whole batch of scenarios at once.

        *scenarios* is a :class:`~repro.circuit.ScenarioBatch` over lineage
        variables, or an iterable of override mappings (same keys as
        :meth:`probability`). One vectorized circuit sweep replaces one
        scalar OBDD walk per scenario; results are bit-for-bit the same
        multilinear polynomial, so they agree with the oracle to rounding.

        Returns a ``(batch,)`` float64 array.
        """
        l, p = self._lineage_of(row)
        if not isinstance(scenarios, ScenarioBatch):
            scenarios = ScenarioBatch.from_overrides(
                [self._override_vars(s) for s in scenarios]
            )
        if l == EPSILON:
            return np.full(len(scenarios), p)
        circuit = self.circuit_for(row)
        return p * rescore(circuit, scenarios)

    def sensitivities(self, row: Row, method: str = "auto") -> list[Sensitivity]:
        """Offending tuples ranked by their swing on answer *row*.

        *method* selects the engine: ``"circuit"`` (one batched gradient
        sweep for all tuples — the served path), ``"obdd"`` (2·k scalar OBDD
        walks — the oracle), or ``"auto"`` (circuit when the answer has
        symbolic lineage, the scalar path otherwise).
        """
        if method not in ("auto", "circuit", "obdd"):
            raise ReproError(
                f"unknown sensitivity method {method!r}; "
                f"choose auto, circuit, or obdd"
            )
        l, p = self._lineage_of(row)
        if method == "obdd" or l == EPSILON:
            return self._sensitivities_obdd(row)
        return self._sensitivities_circuit(row, l, p)

    def _sensitivities_obdd(self, row: Row) -> list[Sensitivity]:
        base = self.probability(row)
        out = []
        for off in self.result.conditioned_tuples:
            absent = self.probability(row, {off: 0.0})
            certain = self.probability(row, {off: 1.0})
            if absent != certain:
                out.append(Sensitivity(off, base, absent, certain))
        out.sort(key=lambda s: -abs(s.swing))
        return out

    def _sensitivities_circuit(
        self, row: Row, l: int, p: float
    ) -> list[Sensitivity]:
        """All swings from one gradient sweep.

        The lineage polynomial is multilinear, so for leaf *i* with current
        probability ``p_i`` and gradient ``g_i``:
        ``Pr(certain) = value + (1 - p_i)·g_i`` and
        ``Pr(absent) = value - p_i·g_i`` — both read off the same sweep.
        """
        circuit = self.circuit_for(row)
        values, grads = rescore_with_gradients(
            circuit, circuit.base_probs[np.newaxis, :]
        )
        value, grad = float(values[0]), grads[0]
        base = p * value
        out = []
        for off in self.result.conditioned_tuples:
            var = self._variable_for(off.node)
            i = circuit.index_of(var)
            if i is None or grad[i] == 0.0:
                continue
            p_i = float(circuit.base_probs[i])
            certain = p * (value + (1.0 - p_i) * grad[i])
            absent = p * (value - p_i * grad[i])
            out.append(Sensitivity(off, base, absent, certain))
        out.sort(key=lambda s: -abs(s.swing))
        return out
