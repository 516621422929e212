"""Surface documents in a skewed basis, and a list of builtin names,
shared by the tests and the per-layer benchmarks."""

import random

# Every builtin family, several members each.
BUILTINS = (
    ["p2-1", "p2-3", "p1xp1-1-1", "p1xp1-2-3", "hirzebruch-e1-a1-b2",
     "hirzebruch-e2-a1-b3", "bordiga", "table1-row-2-printed",
     "enriques-8", "enriques-10", "kim-5-3", "kim-6-6"]
    + [f"table1-row-{n}" for n in range(1, 8)]
    + [f"del-pezzo-{d}" for d in range(3, 10)]
    + [f"kim-4-{m}" for m in range(2, 10)]
)


def unimodular_moves(rng: random.Random, rank: int, count: int) -> list[tuple]:
    """``count`` seeded moves (i, j, c), each the change of basis
    b_i <- b_i + c b_j with i != j and c = +-1.  A rank-1 lattice has none."""
    moves = []
    for _ in range(count if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        moves.append((i, j, rng.choice((1, -1))))
    return moves


def move_coeffs(coeffs, moves) -> list[int]:
    """The coordinates x E^-1, in the basis the moves make, of the class
    with coordinates x."""
    coeffs = list(coeffs)
    for i, j, c in moves:
        coeffs[j] -= c * coeffs[i]
    return coeffs


def moved_document(doc: dict, moves) -> dict:
    """doc in the basis the moves make: the gram matrix becomes E G E^T
    and the coordinates of K and h become x E^-1, so every pairing is
    unchanged.  The other keys are kept."""
    gram = [list(row) for row in doc["gram"]]
    for i, j, c in moves:
        for k in range(len(gram)):
            gram[i][k] += c * gram[j][k]
        for k in range(len(gram)):
            gram[k][i] += c * gram[k][j]
    return {
        **doc,
        "gram": gram,
        "K": move_coeffs(doc["K"], moves),
        "h": move_coeffs(doc["h"], moves),
    }


def skewed_document(rank: int, seed: int) -> dict:
    """The plane blown up at rank - 1 points, h = d l - sum e_i with
    h^2 > 0, written in a basis skewed by 2 rank seeded unimodular moves,
    so that the gram matrix fills up off the diagonal."""
    n = rank
    degree = int((n - 1) ** 0.5) + 1
    document = {
        "name": f"skewed-rank-{rank}",
        "basis": [f"v{i}" for i in range(n)],
        "gram": [
            [(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)
        ],
        "K": [-3] + [1] * (n - 1),
        "h": [degree] + [-1] * (n - 1),
        "flags": {"very_ample": "true", "non_special": "true"},
    }
    return moved_document(document, unimodular_moves(random.Random(seed), n, 2 * n))
