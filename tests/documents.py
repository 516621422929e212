"""Surface documents in a skewed basis, shared by the tests and the
per-layer benchmarks."""

import random


def skewed_document(rank: int, seed: int) -> dict:
    """The plane blown up at rank - 1 points, h = d l - sum e_i with
    h^2 > 0, written in a basis skewed by seeded moves b_i <- b_i + c b_j.

    The gram matrix becomes E G E^T and coordinates x E^-1, so every
    pairing is unchanged while the gram matrix fills up off the diagonal.
    """
    rng = random.Random(seed)
    n = rank
    degree = int((n - 1) ** 0.5) + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    K = [-3] + [1] * (n - 1)
    h = [degree] + [-1] * (n - 1)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for k in range(n):
            gram[i][k] += c * gram[j][k]
        for k in range(n):
            gram[k][i] += c * gram[k][j]
        for v in (K, h):
            v[j] -= c * v[i]
    return {
        "name": f"skewed-rank-{rank}",
        "basis": [f"v{i}" for i in range(n)],
        "gram": gram,
        "K": K,
        "h": h,
        "flags": {"very_ample": "true", "non_special": "true"},
    }
