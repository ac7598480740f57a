"""Reference implementations that tests compare the library against: the
cosine of two vectors, and the SGNS loss of one (center, context, negatives)
triple with its analytic gradients. The library computes these quantities
in bulk (`weat._scores`, `embeddings.sgns_batch_grads`); these are the
one-at-a-time versions."""

import numpy as np

from lyricstats.embeddings import EmbeddingError


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise EmbeddingError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EmbeddingError("cosine undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def sgns_pair_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """Negative log-likelihood for one (center, context, negatives) triple:
    -log sigma(c.x) - sum_neg log sigma(-c.n)."""
    loss = -np.log(_sigmoid(np.dot(center, context)))
    if len(negatives):
        loss -= np.sum(np.log(_sigmoid(-negatives @ center)))
    return float(loss)


def sgns_pair_grads(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of sgns_pair_loss w.r.t. center, context, and each
    negative vector."""
    g_pos = _sigmoid(np.dot(center, context)) - 1.0  # in (-1, 0)
    g_center = g_pos * context
    g_context = g_pos * center
    if len(negatives):
        g_negs_scal = _sigmoid(negatives @ center)  # in (0, 1)
        g_center = g_center + g_negs_scal @ negatives
        g_negatives = np.outer(g_negs_scal, center)
    else:
        g_negatives = np.zeros((0, len(center)))
    return g_center, g_context, g_negatives
