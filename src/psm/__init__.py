"""Desk-scale lab for contrastive pretraining with mined positives and
probabilistically filtered negatives.

The package is organized around a small set of pieces that compose into a
full training loop: a FIFO memory bank of target-network projections
(:mod:`psm.memory_bank`), neighbor mining with per-neighbor softmax weights
and reweighting strategies (:mod:`psm.ppsm`), similarity-gap Bernoulli
filtering of negatives (:mod:`psm.pnsm`), a hand-differentiated MLP stack
with an EMA target copy (:mod:`psm.network`), and an orchestration layer
with metrics, probes, and a CLI (:mod:`psm.trainer`, :mod:`psm.cli`).

Everything is plain NumPy. Import what you need from those modules; the
package itself exports only the synthetic data generator.
"""

from .data import gen_clusters

__version__ = "0.1.0"

__all__ = ["gen_clusters"]
