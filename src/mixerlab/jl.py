"""Random-projection dimension bound for distance-preserving embeddings.

For m points and distortion eps, any dimension n > 8 ln(m) / eps^2 admits
a linear map preserving all pairwise distances within 1 +/- eps.
"""

import math


def jl_bound(m, eps):
    """The raw bound 8 ln(m) / eps^2 (full precision, not rounded)."""
    if not 2 <= m < math.inf:
        raise ValueError(f"m must be finite and >= 2, got {m}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return 8.0 * math.log(m) / (eps * eps)


def jl_min_dim(m, eps):
    """Smallest integer dimension satisfying the bound."""
    return math.ceil(jl_bound(m, eps))


def jl_shorthand_dim(m, eps):
    """Back-of-envelope variant that rounds ln(m) to the nearest integer first.

    Quoted estimates often use this shortcut (giving e.g. 184 where the
    exact ceiling is 185); both values are reported by the calculator.
    Raises `jl_bound`'s ValueError for a bad `m` or `eps`.
    """
    jl_bound(m, eps)
    if eps != 1.0:
        return None
    return 8 * round(math.log(m))
