"""Physical-layer models.

Matched-filter SIR under the random-sequence 1/L cross-correlation model
(per link, and for all pairs as the matrix the routing gate reads), LMMSE
receiver filters and their output SIR with the actual sequence
cross-correlations, and the retransmission-based link energy model.

The interference sums follow the worst-case assumption that every node
transmits at all times, so the interferers for a link (i, j) are all nodes
except the transmitter i and the receiver j. Note the deliberate modeling
split: the matched-filter SIR replaces squared cross-correlations by their
expectation 1/L, while the LMMSE expressions use the exact values; on random
codebooks the two matched-filter numbers therefore differ slightly.

Every batched LMMSE quantity comes from one kernel, ``lmmse_solve``, which
gives q = s_i' B_j^-1 s_i per link (i, j) it is handed, B_j = sum_{k != j}
P_k h(k,j) s_k s_k' + noise I the received covariance at receiver j. With
c = P_i h(i,j), the rank-one downdate that removes the desired signal turns
q into the LMMSE output SIR c q / (1 - c q), ``lmmse_link_sir``. Callers pass
link arrays in any order; the kernel groups them by receiver itself. It
never forms B_j. Per distinct receiver it factors one matrix, in
coordinates chosen once per codebook, and solves it for that receiver's
links only:

- Inverse-Gram form (``SpreadingCodebook.inverse_gram``), cond(G) at most
  ``netmodel.GRAM_CONDITION_LIMIT``. With S the (n, L) codebook, G = S S'
  and D_j = diag(P * h(:, j)), push-through gives S B_j^-1 S' =
  G (noise I + D_j G)^-1 = M_j^-1 with M_j = noise G^-1 + D_j, so
  q = e_i'M_j^-1 e_i by Cholesky of M_j; M_j >= noise G^-1 keeps its
  pivots from vanishing.
- LU form, n <= L and an ill-conditioned G. B_j^-1 S' = S' A_j^-1 with
  A_j = noise I + D_j G, so q = G[i] A_j^-1 e_i by one LU of A_j
  (``dgetrf``), solved by one ``dgetrs`` per link: a blocked solve of
  several right-hand sides would round each by the others.
- Span form, n > L. With the thin QR factorization S' = Q U (``span``),
  B_j^-1 s_i = Q K_j^-1 u_i for K_j = noise I + U D_j U', so
  q = u_i'K_j^-1 u_i by Cholesky of K_j.

Each link is solved once, by one ``dpotrs`` per receiver on its Cholesky
factor or by the LU form's ``dgetrs``: z = M_j^-1 e_i, A_j^-1 e_i or
K_j^-1 u_i, and q is the link's right-hand side (for LU its G row) dotted
with z. On request the same z gives x = S B_j^-1 S' e_i, so x_k = c's_k
for the filter direction c = B_j^-1 s_i and x_i = q: x = z, G z or U'z.
The kernel returns no filters. They come from one per-link reference in
the full L-dimensional space, ``lmmse_filter`` (with ``sir_lmmse``),
called per link on demand.

Each receiver is factored once per power vector. A memo keeps the factors
(failed ones too) made at the last key: p, noise and the gains by value,
the codebook object by identity, holding a reference. A call at another
key drops them before it factors; one at the same key factors only the
receivers missing. A power-control step, the routing gate and the energy
at one power vector thus share factors, bit-identical to fresh ones.

No filter's SIR exceeds the single-user bound c / noise (B_j without the
desired term is at least noise I), so ``lmmse_sir_matrix`` solves only pairs
whose bound reaches half the routing gate, a margin far wider than the
kernel's relative rounding, about 1e-4 even at the warned condition bound.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from .errors import ConfigError, check_links
from .netmodel import SpreadingCodebook

# Condition bound above which an LMMSE covariance solve is flagged.
CONDITION_WARN_THRESHOLD = 1e12

# lmmse_solve's memo: the last power vector's key and receiver factors
_memo: tuple = ((), {})


# Kept for callers that build filter mappings through this name
FilterBank = dict


def received_powers(gains: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Total received power at every node from all other transmitters.

    Entry j equals sum_k h(k, j) P_k over k != j; the zero diagonal of the
    gain matrix excludes each node's own transmission. This is the quantity
    a node can measure locally; the matched-filter SIR subtracts the desired
    term from it. Only the shapes are checked: ConfigError names ``gains``
    unless they are square, or ``p`` unless it holds one power per node.
    """
    if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
        raise ConfigError(f"gains must be square, got shape {gains.shape}")
    if np.shape(p) != gains.shape[:1]:
        raise ConfigError(f"p needs {len(gains)} powers, got {np.shape(p)}")
    return gains.T @ p


def sir_matched(link, p: np.ndarray, gains: np.ndarray, spreading_gain: int,
                noise: float) -> float:
    """Matched-filter SIR of a link under the 1/L interference model.

    SIR = h(i,j) P_i / ( (1/L) * sum_{k != i,j} h(k,j) P_k + noise ).
    """
    i, j = check_links("link", [link], p.shape[0])
    return float(matched_link_sir(i, j, p, gains, spreading_gain, noise)[0])


def matched_link_sir(i_idx: np.ndarray, j_idx: np.ndarray, p: np.ndarray,
                     gains: np.ndarray, spreading_gain: int,
                     noise: float) -> np.ndarray:
    """``sir_matched`` of every link (i_idx[l], j_idx[l]); infinite where
    the denominator is zero."""
    s = received_powers(gains, p)
    num = gains[i_idx, j_idx] * p[i_idx]
    denom = (s[j_idx] - num) / spreading_gain + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = num / denom
    sir[denom == 0.0] = np.inf
    return sir


def matched_sir_matrix(p: np.ndarray, gains: np.ndarray,
                       spreading_gain: int, noise: float) -> np.ndarray:
    """``matched_link_sir`` of every ordered pair (i, j), the SIR the
    routing gate reads: zero on the diagonal and wherever the desired term
    h(i,j) P_i is zero, 0/0 included; infinite where only the denominator
    is zero."""
    nodes = np.arange(p.shape[0])
    sir = matched_link_sir(nodes[:, None], nodes, p, gains, spreading_gain,
                           noise)
    sir[gains * p[:, None] == 0.0] = 0.0
    np.fill_diagonal(sir, 0.0)
    return sir


def _interference_covariance(i: int, p: np.ndarray, gains: np.ndarray,
                             codebook: SpreadingCodebook, noise: float,
                             receiver_node: int) -> np.ndarray:
    """Interference-plus-noise covariance at the receiver, excluding the
    desired transmitter i and the receiver itself."""
    seqs = codebook.sequences
    weights = p * gains[:, receiver_node]
    weights[[i, receiver_node]] = 0.0
    cov = (seqs.T * weights) @ seqs
    cov[np.diag_indices_from(cov)] += noise
    return cov


def lmmse_filter(i: int, p: np.ndarray, gains: np.ndarray,
                 codebook: SpreadingCodebook, noise: float,
                 receiver_node: int) -> np.ndarray:
    """LMMSE receiver filter for transmitter i at ``receiver_node``.

    c = sqrt(P_i) / (1 + P_i s_i' A^-1 s_i) * A^-1 s_i with A the
    interference-plus-noise covariance. The noise term keeps A positive
    definite in exact arithmetic; a noise far below the interference vanishes
    in floating point, and the solve then raises ``numpy.linalg.LinAlgError``.
    A very large condition bound is reported as a warning.
    """
    (i,), (receiver_node,) = check_links("link", [(i, receiver_node)],
                                         p.shape[0])
    codebook.check_nodes(p.shape[0])
    cov = _interference_covariance(i, p, gains, codebook, noise, receiver_node)
    # lambda_max <= noise + total interference weight since sequences are unit norm
    cond_bound = float(np.trace(cov)) / noise
    if cond_bound > CONDITION_WARN_THRESHOLD:
        warnings.warn(f"LMMSE covariance condition bound {cond_bound:.3e} "
                      f"exceeds {CONDITION_WARN_THRESHOLD:.1e}",
                      RuntimeWarning, 2)
    s_i = codebook.sequences[i]
    base = np.linalg.solve(cov, s_i)
    scale = np.sqrt(p[i]) / (1.0 + p[i] * float(s_i @ base))
    return scale * base


def sir_lmmse(link, p: np.ndarray, filters: FilterBank, gains: np.ndarray,
              codebook: SpreadingCodebook, noise: float) -> float:
    """Output SIR of the link's receiver filter with exact cross-correlations.

    The filter c is ``filters[link]``, read from any mapping of links to
    filter vectors.

    SIR = h(i,j) P_i (c's_i)^2 /
          ( sum_{k != i,j} P_k h(k,j) (c's_k)^2 + noise * c'c ).
    """
    (i,), (j,) = check_links("link", [link], p.shape[0])
    codebook.check_nodes(p.shape[0])
    c = filters[link]
    x = codebook.sequences @ c
    weights = p * gains[:, j] * x * x
    weights[[i, j]] = 0.0
    num = gains[i, j] * p[i] * x[i] * x[i]
    denom = float(np.sum(weights)) + noise * float(c @ c)
    if denom == 0.0:
        return float("inf")
    return float(num / denom)


def lmmse_solve(p: np.ndarray, gains: np.ndarray,
                codebook: SpreadingCodebook, noise: float,
                i_idx: np.ndarray, j_idx: np.ndarray, vectors: bool = False):
    """q[l] = s_i' B_j^-1 s_i of every link (i, j) = (i_idx[l], j_idx[l]).

    Links may come in any order and share receivers, and i = j is allowed.
    The links are grouped by receiver inside: each distinct receiver's
    system is factored once per p and solved once per call, for its links
    only (each link alone in the LU form; module docstring). With
    ``vectors``, that solve also gives x = S c (n, links) of each link's
    filter direction c. A system that fails to factor in floating point
    (the span form can, at noise below the rounding of the received power)
    leaves its links' q at NaN. One warning per call names such receivers,
    if any, and reports the largest covariance condition bound
    (sum_{k != i,j} P_k h(k,j) + L noise) / noise of a link, if it exceeds
    ``CONDITION_WARN_THRESHOLD``.
    """
    global _memo
    n = p.shape[0]
    codebook.check_nodes(n)
    order = j_idx.argsort(kind="stable")  # the links grouped by receiver
    counts = np.bincount(j_idx, minlength=n)
    receivers = counts.nonzero()[0]
    ends = counts[receivers].cumsum()
    key = (codebook, float(noise), np.asarray(p, float).tobytes(),
           np.asarray(gains, float).tobytes())
    held, factors = _memo  # bound once: another call may rebind _memo
    if not (held and held[0] is codebook and held[1:] == key[1:]):
        factors = {}  # the last vector's factors go with the next line
        _memo = key, factors
    new = [j for j in receivers.tolist() if j not in factors]
    w = p * gains[:, new].T  # (new receivers, n); zero at each one
    lu = codebook.inverse_gram is None and n <= codebook.length
    e = np.eye(n)
    if codebook.inverse_gram is not None:
        # M_j = noise G^-1 + D_j, right-hand sides e_i
        a = np.repeat(noise * codebook.inverse_gram[None], len(w), axis=0)
        a.reshape(-1, n * n)[:, ::n + 1] += w
    elif lu:
        # A_j' = noise I + G D_j, right-hand sides e_i
        a = codebook.gram * w[:, None, :]
        a.reshape(-1, n * n)[:, ::n + 1] += noise
    else:
        # K_j = noise I + U D_j U', right-hand sides u_i; one product per
        # receiver, so its factor does not depend on the others
        e = codebook.span.T  # (n, r)
        r = e.shape[1]
        a = np.array([(e.T * w_j) @ e for w_j in w]).reshape(-1, r, r)
        a.reshape(-1, r * r)[:, ::r + 1] += noise
    for j, a_j in zip(new, a):
        # a_j.T is a Fortran view factored in place: A_j, or else a_j
        # itself, symmetric, of which the solves read the lower triangle
        *factor, info = (dgetrf(a_j.T, overwrite_a=1) if lu else
                         dpotrf(a_j.T, lower=1, clean=0, overwrite_a=1))
        factors[j] = None if info else factor
    rhs = e[i_idx[order]].T  # (r, links), grouped by receiver
    z = np.full_like(rhs, np.nan)  # M_j^-1 e_i, A_j^-1 e_i or K_j^-1 u_i
    edges = [0, *ends.tolist()]
    for j, lo, hi in zip(receivers.tolist(), edges[:-1], edges[1:]):
        if factors[j] is None:
            continue
        if lu:  # one link per solve (module docstring)
            for k in range(lo, hi):
                z[:, k] = dgetrs(*factors[j], rhs[:, k])[0]
        else:
            z[:, lo:hi] = dpotrs(*factors[j], rhs[:, lo:hi], lower=1)[0]
    q_grouped = np.einsum("rl,rl->l",
                          codebook.gram[i_idx[order]].T if lu else rhs, z)
    q = np.empty_like(q_grouped)
    q[order] = q_grouped
    own = p[i_idx] * gains[i_idx, j_idx]
    bound = float(((received_powers(gains, p)[j_idx] - own).max(initial=0.0)
                   + codebook.length * noise) / noise)
    failed = receivers[np.isnan(q_grouped[ends - 1])].tolist()
    clauses = [f"covariance condition bound {bound:.3e} exceeds "
               f"{CONDITION_WARN_THRESHOLD:.1e}"
               ] if bound > CONDITION_WARN_THRESHOLD else []
    clauses += [f"receivers left with NaN q: {failed}"] if failed else []
    if clauses:
        warnings.warn("LMMSE " + "; ".join(clauses), RuntimeWarning, 2)
    if not vectors:
        return q
    x = z if codebook.inverse_gram is not None else (
        codebook.gram if lu else e) @ z  # by form (module docstring)
    return q, x[:, order.argsort()]


def lmmse_link_sir(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """LMMSE output SIR c q / (1 - c q) of links with desired term
    c = P_i h(i,j) and q from ``lmmse_solve``; infinite where c is zero,
    as the reference filter of a silent transmitter gives."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c == 0.0, np.inf, c * q / (1.0 - c * q))


def lmmse_sir_matrix(p: np.ndarray, gains: np.ndarray,
                     codebook: SpreadingCodebook, noise: float,
                     gate: float) -> np.ndarray:
    """Achievable LMMSE output SIR at p of the pairs that can reach ``gate``.

    Entry (i, j) is ``lmmse_link_sir`` of c = P_i h(i,j) and q from
    ``lmmse_solve``, solved only where the single-user bound c / noise is at
    least gate / 2, a margin far wider than the kernel's rounding, and zero
    elsewhere, where c is zero (the diagonal) or where q is NaN. ``gate=0``
    solves every pair.
    """
    c = p[:, None] * gains
    i_idx, j_idx = np.nonzero(c >= 0.5 * gate * noise)
    q = lmmse_solve(p, gains, codebook, noise, i_idx, j_idx)
    sir = np.zeros_like(c)
    sir[i_idx, j_idx] = lmmse_link_sir(c[i_idx, j_idx], q)
    sir[np.isnan(sir) | (c == 0.0)] = 0.0  # no q, or no desired signal
    return sir


def efficiency(sir, packet_bits: int):
    """Packet success probability f = (1 - exp(-sir/2))^M.

    The underlying bit error model is noncoherent FSK; retransmission until
    success makes 1/f the expected number of packet transmissions. Accepts
    scalars or arrays, and takes the M-th power in scalar float arithmetic,
    so no SIR's f depends on how many are evaluated at once.
    """
    base = 1.0 - np.exp(-0.5 * np.asarray(sir, dtype=float))
    f = np.array([b ** packet_bits for b in base.ravel().tolist()], float)
    return f.reshape(base.shape)[()]


def energy_per_bit_link(link, p: np.ndarray, sir: float, bit_rate: float,
                        packet_bits: int) -> float:
    """Transmit energy per correctly delivered bit on one link.

    E_b = P_i / (bit_rate * f(sir)); infinite when the success probability
    is zero (the link cannot deliver).
    """
    i, _ = check_links("link", [link], len(p))
    return float(link_energies(np.asarray(p, dtype=float)[i],
                               np.array([sir], dtype=float), bit_rate,
                               packet_bits)[0])


def link_energies(p_tx: np.ndarray, sir: np.ndarray, bit_rate: float,
                  packet_bits: int) -> np.ndarray:
    """``energy_per_bit_link`` for arrays of transmit powers and SIRs."""
    if not bit_rate > 0:  # NaN too
        raise ValueError("bit_rate must be positive")
    f = efficiency(sir, packet_bits)
    with np.errstate(divide="ignore", invalid="ignore"):
        energy = p_tx / (bit_rate * f)
    energy[f == 0.0] = np.inf
    return energy
