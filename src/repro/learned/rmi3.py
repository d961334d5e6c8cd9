"""Three-stage RMI (extension).

The paper's Section 3.1 explains two-stage RMIs and notes that deeper
RMIs are "almost never required" when data fits in memory -- but Section
4.3 also reports the authors experimented with multi-stage RMIs to chase
higher accuracy.  This extension implements the three-stage variant so
that tradeoff can be measured here too.

Monotone routing through *two* model stages is what makes validity
subtle: a middle model's extrapolation could overtake its right
neighbour.  We restore global monotonicity by clamping every middle
model's prediction to its bucket's position range; ranges are contiguous
and ordered (stage-one routing is monotone), so the composed routing is
monotone and the leaf-record machinery of the two-stage RMI applies
unchanged.
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

_MID_REC = 4  # slope, intercept, clamp_lo, clamp_hi
_LEAF_REC = 5  # slope, intercept, err, min_pos, max_pos_plus1


@register_index
class RMI3Index(SortedDataIndex):
    """Three-stage recursive model index.

    Stage one (a root model) routes to one of ``mid_branching`` clamped
    linear models; their prediction routes to one of ``branching`` leaf
    records identical to the two-stage RMI's.
    """

    name = "RMI3"
    capabilities = Capabilities(updates=False, ordered=True, kind="Learned")

    def __init__(
        self,
        branching: int = 4096,
        mid_branching: int = 64,
        stage1: str = "cubic",
    ):
        super().__init__()
        if branching < 1 or mid_branching < 1:
            raise ValueError("branching factors must be >= 1")
        self.branching = branching
        self.mid_branching = mid_branching
        self.stage1_type = stage1
        self.root = None
        self._mid: TracedArray = None
        self._leaves: TracedArray = None
        self._root_params: TracedArray = None
        self._mid_scale = 0.0
        self._leaf_scale = 0.0

    # -- construction -----------------------------------------------------

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        keys = data.values.astype(np.float64)
        n = len(keys)
        b_mid = self.mid_branching
        b_leaf = self.branching

        self.root, self.reused_seconds = fit_root(self.stage1_type, keys)
        self._mid_scale = b_mid / float(n)
        self._leaf_scale = b_leaf / float(n)

        root_pred = self.root.predict_batch(keys)
        mid_ids = np.clip(
            np.floor(root_pred * self._mid_scale), 0, b_mid - 1
        ).astype(np.int64)
        if np.any(np.diff(mid_ids) < 0):
            self.root = make_model("linear_spline").fit(
                keys, np.arange(n, dtype=np.float64)
            )
            root_pred = self.root.predict_batch(keys)
            mid_ids = np.clip(
                np.floor(root_pred * self._mid_scale), 0, b_mid - 1
            ).astype(np.int64)

        starts = np.searchsorted(mid_ids, np.arange(b_mid), side="left")
        ends = np.searchsorted(mid_ids, np.arange(b_mid), side="right")

        mid_slopes, mid_intercepts, _ = fit_linear_buckets(keys, starts, ends)
        mid_records = np.column_stack(
            (mid_slopes, mid_intercepts, starts, ends)
        ).ravel()

        # Clamped middle predictions for every key (monotone overall).
        slopes = mid_records[0::_MID_REC][mid_ids]
        intercepts = mid_records[1::_MID_REC][mid_ids]
        clamp_lo = mid_records[2::_MID_REC][mid_ids]
        clamp_hi = mid_records[3::_MID_REC][mid_ids]
        mid_pred = np.clip(slopes * keys + intercepts, clamp_lo, clamp_hi)
        leaf_ids = np.clip(
            np.floor(mid_pred * self._leaf_scale), 0, b_leaf - 1
        ).astype(np.int64)
        if np.any(np.diff(leaf_ids) < 0):
            raise AssertionError(
                "three-stage routing became non-monotone; this indicates a "
                "model clamping bug"
            )

        lstarts = np.searchsorted(leaf_ids, np.arange(b_leaf), side="left")
        lends = np.searchsorted(leaf_ids, np.arange(b_leaf), side="right")
        slopes, intercepts, errors = fit_linear_buckets(keys, lstarts, lends)
        leaf_records = np.column_stack(
            (slopes, intercepts, errors, lstarts, lends)
        ).ravel()

        self._mid = self._register(
            TracedArray.allocate(space, mid_records, name="rmi3.mid")
        )
        self._leaves = self._register(
            TracedArray.allocate(space, leaf_records, name="rmi3.leaves")
        )
        self._root_params = self._register(
            TracedArray.allocate(
                space,
                np.asarray(list(self.root.params()) or [0.0], dtype=np.float64),
                name="rmi3.root",
            )
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        n = self.n_keys
        kf = float(int(key))
        self._root_params.get_block(0, len(self._root_params), tracer)
        tracer.instr(self.root.eval_instr + 3)
        mid_id = int(self.root.predict(kf) * self._mid_scale)
        if mid_id < 0:
            mid_id = 0
        elif mid_id >= self.mid_branching:
            mid_id = self.mid_branching - 1

        m_slope, m_intercept, m_lo, m_hi = self._mid.get_block(
            mid_id * _MID_REC, _MID_REC, tracer
        )
        tracer.instr(5)
        mid_pred = m_slope * kf + m_intercept
        if mid_pred < m_lo:
            mid_pred = m_lo
        elif mid_pred > m_hi:
            mid_pred = m_hi
        leaf_id = int(mid_pred * self._leaf_scale)
        if leaf_id < 0:
            leaf_id = 0
        elif leaf_id >= self.branching:
            leaf_id = self.branching - 1

        slope, intercept, err, min_pos, max_pos_plus1 = self._leaves.get_block(
            leaf_id * _LEAF_REC, _LEAF_REC, tracer
        )
        tracer.instr(6)
        pred = slope * kf + intercept
        if pred < min_pos:
            pred = min_pos
        elif pred > max_pos_plus1:
            pred = max_pos_plus1

        e = int(err)
        lo = max(int(pred) - e, int(min_pos))
        hi = min(int(pred) + e + 2, int(max_pos_plus1) + 1)
        if hi <= lo:
            lo, hi = int(min_pos), int(max_pos_plus1) + 1
        lo = max(lo, 0)
        hi = min(hi, n + 1)
        if hi <= lo:
            hi = lo + 1
        return SearchBound(lo, hi)

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        max_pow = max(int(math.log2(max(n_keys, 64))) - 3, 6)
        return [
            {"branching": 1 << p, "mid_branching": 1 << max(p - 5, 2)}
            for p in range(6, max_pow + 1, 2)
        ]
