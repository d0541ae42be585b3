"""Dissociation bounds: extensional-speed probability enclosures.

The intensional/extensional gap the paper bridges has a third point between
its endpoints: *dissociation* (Gatterbauer & Suciu's oblivious bounds)
rewrites each offending multi-occurrence tuple into fresh independent
copies — keeping the probability for an upper bound, splitting the failure
mass symmetrically (``p' = 1-(1-p)^(1/c)``) for a lower bound — and
evaluates both rewritten plans purely extensionally. Every answer gets a
sound ``[lower, upper]`` enclosure at safe-plan speed, exact (zero width)
wherever the instance is data safe.

Three consumers build on the bounds:

* the resilience ladder's ``dissociation`` rung
  (:func:`~repro.dissociation.network.network_dissociation_bounds`) bounds
  a hard And-Or component before any OBDD/approximation work;
* the top-k certifier (:func:`~repro.dissociation.topk.certified_top_k`)
  ranks answers by their intervals and spends exact inference only on the
  answers whose intervals overlap the k-th decision boundary;
* :meth:`repro.sqlbackend.executor.SQLitePartialLineageEvaluator.dissociated_bounds`
  runs the same two folds as pure SQL aggregation.
"""

from repro.dissociation.engine import (
    DissociationEvaluator,
    DissociationResult,
    dissociation_bounds,
)
from repro.dissociation.network import network_dissociation_bounds
from repro.dissociation.topk import CertifiedAnswer, TopKCertification, certified_top_k

__all__ = [
    "DissociationEvaluator",
    "DissociationResult",
    "dissociation_bounds",
    "network_dissociation_bounds",
    "CertifiedAnswer",
    "TopKCertification",
    "certified_top_k",
]
