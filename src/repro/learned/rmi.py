"""Two-stage recursive model index (RMI), Kraska et al. / Section 3.1.

Structure: a stage-one model routes a key to one of ``branching`` leaf
buckets; the leaf's linear model predicts the key's absolute position.
Per-leaf maximum training errors give the search bound.

Validity for absent keys relies on two properties enforced here:

* the stage-one model is monotone non-decreasing (non-monotone fits fall
  back to monotone alternatives in :mod:`repro.learned.models`), so the
  set of keys routed to a leaf is a contiguous key interval; and
* each leaf record stores the position range ``[min_pos, max_pos + 1]`` of
  its routed keys, to which the (monotone) leaf prediction is clamped, so
  extrapolation beyond the leaf's training keys cannot escape the range
  that must contain the lower bound.

Leaf records are stored as contiguous 5-float64 blocks (slope, intercept,
error, min_pos, max_pos_plus1): one lookup touches the stage-one
parameters and exactly one leaf record -- the "at most two cache misses
for inference" property the paper highlights for two-layer RMIs.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.bounds import SearchBound
from repro.core.interface import Capabilities, SortedDataIndex
from repro.core.registry import register_index
from repro.learned.models import fit_linear_buckets, fit_root, make_model
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

_REC = 5  # floats per leaf record
_ROUTE_INSTR = 3  # scale, floor, clamp
_BOUND_INSTR = 6  # leaf fma, clamp, bound arithmetic


@register_index
class RMIIndex(SortedDataIndex):
    """Recursive model index with one root model and ``branching`` leaves.

    Parameters
    ----------
    branching:
        Number of second-stage models (the paper's ``B``).
    stage1 / stage2:
        Model type names (see :data:`repro.learned.models.MODEL_TYPES`).
        Stage-two models must be linear ("linear" or "linear_spline").
    """

    name = "RMI"
    capabilities = Capabilities(updates=False, ordered=True, kind="Learned")

    def __init__(
        self,
        branching: int = 1024,
        stage1: str = "cubic",
        stage2: str = "linear",
    ):
        super().__init__()
        if branching < 1:
            raise ValueError("branching must be >= 1")
        if stage2 not in ("linear", "linear_spline"):
            raise ValueError("stage-two models must be linear")
        self.branching = branching
        self.stage1_type = stage1
        self.stage2_type = stage2
        self.root = None
        self._records: TracedArray = None
        self._root_params: TracedArray = None
        self._route_scale = 0.0

    # -- construction -----------------------------------------------------

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        keys = data.values.astype(np.float64)
        n = len(keys)
        b = self.branching

        self.root, self.reused_seconds = fit_root(self.stage1_type, keys)
        self._route_scale = b / float(n)

        root_pred = self.root.predict_batch(keys)
        buckets = np.clip(
            np.floor(root_pred * self._route_scale), 0, b - 1
        ).astype(np.int64)
        if np.any(np.diff(buckets) < 0):
            # Monotone routing is required for validity; the model types
            # guard against this, but refit with the always-monotone
            # endpoint spline if a fit slipped through.
            self.root = make_model("linear_spline").fit(
                keys, np.arange(n, dtype=np.float64)
            )
            root_pred = self.root.predict_batch(keys)
            buckets = np.clip(
                np.floor(root_pred * self._route_scale), 0, b - 1
            ).astype(np.int64)

        # Bucket boundaries: starts[j] = first data index routed to j.
        starts = np.searchsorted(buckets, np.arange(b), side="left")
        ends = np.searchsorted(buckets, np.arange(b), side="right")

        # One record per leaf: (slope, intercept, error, min_pos,
        # max_pos_plus1).  An empty bucket's range collapses to the
        # position just past the last key routed before it.
        slopes, intercepts, errors = fit_linear_buckets(
            keys, starts, ends, self.stage2_type
        )
        records = np.column_stack(
            (slopes, intercepts, errors, starts, ends)
        ).ravel()

        # Validity relies on the records holding each bucket's *own*
        # position range: the clamp bounds leaf-model extrapolation for
        # keys routed to the bucket but outside its training keys.  Scalar
        # and batch routing are bit-identical (same IEEE operations in the
        # same order; see models.py), so a key always hits the record it
        # was assigned to at build time.
        self._bucket_counts = (ends - starts).astype(np.float64)
        self._records = self._register(
            TracedArray.allocate(space, records, name="rmi.leaves")
        )
        self._root_params = self._register(
            TracedArray.allocate(
                space,
                np.asarray(list(self.root.params()) or [0.0], dtype=np.float64),
                name="rmi.root",
            )
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        tracer.phase("model")  # whole RMI lookup is model evaluation
        n = self.n_keys
        kf = float(int(key))
        self._root_params.get_block(0, len(self._root_params), tracer)
        tracer.instr(self.root.eval_instr + _ROUTE_INSTR)
        bucket = int(self.root.predict(kf) * self._route_scale)
        if bucket < 0:
            bucket = 0
        elif bucket >= self.branching:
            bucket = self.branching - 1

        slope, intercept, err, min_pos, max_pos_plus1 = self._records.get_block(
            bucket * _REC, _REC, tracer
        )
        tracer.instr(_BOUND_INSTR)
        pred = slope * kf + intercept
        if pred < min_pos:
            pred = min_pos
        elif pred > max_pos_plus1:
            pred = max_pos_plus1

        e = int(err)
        lo = int(pred) - e
        hi = int(pred) + e + 2
        range_lo = int(min_pos)
        range_hi = int(max_pos_plus1) + 1
        lo = max(lo, range_lo)
        hi = min(hi, range_hi)
        if hi <= lo:
            # Prediction interval and position range disagree (can only
            # happen on a one-off routing discrepancy); the position range
            # alone is guaranteed to contain the lower bound.
            lo, hi = range_lo, range_hi
        lo = max(lo, 0)
        hi = min(hi, n + 1)
        if hi <= lo:
            hi = lo + 1
        return SearchBound(lo, hi)

    # -- diagnostics ---------------------------------------------------------

    def mean_log2_error(self) -> float:
        """Average log2 of the leaf search interval (paper's "log2 error")."""
        errs = self._records.values.reshape(-1, _REC)[:, 2]
        counts = self._bucket_counts
        total = counts.sum()
        if total <= 0:
            return 0.0
        weights = counts / total
        return float(np.sum(weights * np.log2(2.0 * errs + 2.0)))

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        """~10 configurations from minimum to maximum size (Figure 7).

        Branching factors go up to ~n/8 leaves (CDFShop's exploration
        range; more leaves than keys is pure waste).
        """
        max_pow = max(int(math.log2(max(n_keys, 64))) - 3, 6)
        powers = range(4, max_pow + 1)
        return [{"branching": 1 << p, "stage1": "cubic"} for p in powers]
