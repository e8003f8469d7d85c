"""Strongly-connected-component algorithms.

Two in-memory CSR kernels with one dispatch point:

* ``"scipy"`` — :func:`scipy.sparse.csgraph.connected_components`, the
  production kernel and the default.  scipy is imported inside the kernel,
  so ``import repro`` and the sublinear-space path never load it;
* ``"tarjan"`` — iterative Tarjan, the pure-Python reference routine.

Both label the same partition up to renaming; the differential suite pins
this against ``networkx`` as an independent oracle.

The semi-external streaming algorithm (:mod:`repro.scc.semi_external`)
is registered too — so misspellings fail fast with the full menu — but it
operates on disk stores, not CSR arrays, and is dispatched by the
sublinear-space path rather than :func:`scc_labels`.

Every kernel lives in one :data:`registry <BackendSpec>`:
:func:`available_backends` is the single source of truth the CLI
``--scc-backend`` choices, the sublinear-space validation, and every
"unknown backend" error message draw from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgorithmError
from ..obs import inc, span
from .semi_external import SemiExternalStats, semi_external_scc_labels
from .tarjan import tarjan_scc_labels

__all__ = [
    "scc_labels",
    "multi_scc_labels",
    "tarjan_scc_labels",
    "semi_external_scc_labels",
    "available_backends",
    "backend_spec",
    "BackendSpec",
    "SemiExternalStats",
    "SCC_BACKENDS",
    "DEFAULT_SCC_BACKEND",
]


@dataclass(frozen=True)
class BackendSpec:
    """One registered SCC kernel.

    ``streaming`` marks kernels that operate on disk pair stores instead of
    in-memory CSR arrays.
    """

    name: str
    summary: str
    streaming: bool = False


_REGISTRY: "dict[str, BackendSpec]" = {
    spec.name: spec
    for spec in (
        BackendSpec("scipy", "scipy.sparse.csgraph kernel (default)"),
        BackendSpec("tarjan", "iterative Tarjan, pure-Python reference"),
        BackendSpec(
            "semi-external",
            "Algorithm 2 streaming SCC over disk pair stores",
            streaming=True,
        ),
    )
}


def available_backends(streaming: bool = False) -> "tuple[str, ...]":
    """Registered backend names, in registration order.

    With ``streaming=False`` (the default) only in-memory CSR kernels are
    listed — the menu :func:`scc_labels` and the ``--scc-backend`` CLI
    flag accept.  ``streaming=True`` adds the disk-store kernels accepted
    by the sublinear-space path.
    """
    return tuple(
        name for name, spec in _REGISTRY.items()
        if streaming or not spec.streaming
    )


def backend_spec(backend: str) -> BackendSpec:
    """The :class:`BackendSpec` for ``backend``; raises on unknown names.

    The one validation point every dispatch surface shares, so a
    misspelled backend fails *early* and the error always lists the full,
    current menu.
    """
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise AlgorithmError(
            f"unknown SCC backend {backend!r}; choose from "
            f"{available_backends(streaming=True)}"
        ) from None


#: In-memory CSR backends — what ``--scc-backend`` offers.  Derived from
#: the registry so the CLI choices, error messages, and
#: :func:`available_backends` can never drift apart.
SCC_BACKENDS = available_backends()

#: Backend used when callers don't choose one.  ``scipy`` labels the same
#: partition as ``tarjan`` (the differential suite pins this) and is the
#: fastest kernel end to end; see ``docs/performance.md``.
DEFAULT_SCC_BACKEND = "scipy"


def _scipy_scc_labels(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    # The one sanctioned scipy touchpoint, imported here rather than at
    # module level so that importing repro (and Algorithm 2, which never
    # runs an in-memory kernel) does not pay for loading scipy.
    from scipy.sparse import csgraph, csr_array  # reprolint: disable=RL001 - the in-memory SCC kernel

    n = indptr.size - 1
    data = np.ones(heads.size, dtype=np.int8)
    matrix = csr_array((data, heads, indptr), shape=(n, n))
    _, labels = csgraph.connected_components(matrix, directed=True,
                                             connection="strong")
    return labels.astype(np.int64)


def scc_labels(
    indptr: np.ndarray,
    heads: np.ndarray,
    backend: str = DEFAULT_SCC_BACKEND,
) -> np.ndarray:
    """Label every vertex of a CSR digraph with its SCC id.

    ``backend`` selects the implementation (see module docstring).  Labels
    differ between backends only by renaming; canonicalise with
    :class:`repro.partition.Partition` before comparing.
    """
    spec = backend_spec(backend)
    if spec.streaming:
        raise AlgorithmError(
            f"SCC backend {backend!r} streams disk pair stores, not CSR "
            f"arrays; use space='sublinear' (coarsen_influence_graph) or "
            f"semi_external_scc_labels directly"
        )
    with span("scc_labels", backend=backend, n=int(indptr.size - 1),
              m=int(heads.size)):
        inc("scc.runs")
        if backend == "tarjan":
            return tarjan_scc_labels(indptr, heads)
        return _scipy_scc_labels(indptr, heads)


def multi_scc_labels(
    indptr: np.ndarray,
    heads: np.ndarray,
    keep: np.ndarray,
    backend: str = DEFAULT_SCC_BACKEND,
) -> np.ndarray:
    """SCC labels of every live-edge round drawn over one base CSR.

    ``keep`` is an ``(r, m)`` boolean matrix whose row ``i`` selects the
    base edges live in round ``i``.  Returns an ``(r, n)`` ``int64`` matrix
    whose row ``i`` is :func:`scc_labels` of that round's subgraph.
    """
    backend_spec(backend)
    keep = np.asarray(keep)
    if keep.ndim != 2 or keep.dtype != bool:
        raise ValueError("keep must be an (r, m) boolean matrix")
    if keep.shape[1] != heads.size:
        raise ValueError("keep needs one column per base edge")
    n = indptr.size - 1
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rows = np.empty((keep.shape[0], n), dtype=np.int64)
    for i, row in enumerate(keep):
        sub = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails[row], minlength=n), out=sub[1:])
        rows[i] = scc_labels(sub, heads[row], backend=backend)
    return rows
