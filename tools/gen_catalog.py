"""Generate src/g2tcs/data/catalog.json from tabulated block data.

Each record carries enough derivation data for verify_catalog() to
recompute the derived fields independently.
"""

import json
import os

BLOCKS = []


def ordinary(bid, rank, gram, c2bar, b3, derivation, provenance):
    BLOCKS.append({
        "id": bid,
        "kind": "ordinary",
        "rank": rank,
        "N": gram,
        "c2bar": c2bar,
        "b3": b3,
        "provenance": provenance,
        "pleasant": True,
        "k_trivial": True,
        "derivation": derivation,
    })


def involution(bid, rank, gram, c2bar, b3, b3plus, chiC, derivation,
               provenance, ordinary_ok=True):
    BLOCKS.append({
        "id": bid,
        "kind": "involution",
        "rank": rank,
        "N": gram,
        "c2bar": c2bar,
        "b3": b3,
        "b3plus": b3plus,
        "chiC": chiC,
        "provenance": provenance,
        "pleasant": True,
        "k_trivial": True,
        "ordinary_ok": ordinary_ok,
        "derivation": derivation,
    })


# ---------------------------------------------------------------- rank 1
# (r, -K^3, b3 of the Fano Y)
RANK1 = [
    (4, 64, 0), (3, 54, 0),
    (2, 8, 42), (2, 16, 20), (2, 24, 10), (2, 32, 4), (2, 40, 0),
    (1, 2, 104), (1, 4, 60), (1, 6, 40), (1, 8, 28), (1, 10, 20),
    (1, 12, 14), (1, 14, 10), (1, 16, 6), (1, 18, 4), (1, 22, 0),
]
for r, mk3, b3y in RANK1:
    d = mk3 // r ** 3
    n = mk3 // r ** 2
    ordinary(
        f"3.8_{r}_{d}", 1, [[n]], [(24 + mk3) // r], b3y + mk3 + 2,
        {"method": "rank1_fano", "r": r, "minusK3": mk3, "b3Y": b3y},
        "rank-one Fano hyperplane-anticanonical block",
    )

# ------------------------------------------------------------ rank 2 / 3
R2 = [
    ("3.9_3", [[4, 2], [2, 0]], [20, 12], 32, 22, 8),
    ("3.9_10", [[8, 4], [4, 0]], [28, 12], 24, 6, 16),
    ("3.9_17", [[4, 7], [7, 6]], [22, 26], 28, 2, 24),
    ("3.9_27", [[2, 5], [5, 4]], [18, 22], 40, 0, 38),
    ("3.9_32", [[2, 4], [4, 2]], [18, 18], 50, 0, 48),
    ("3.9_35", [[4, 4], [4, 2]], [22, 18], 58, 0, 56),
    ("3.10", [[0, 2, 2], [2, 0, 2], [2, 2, 0]], [12, 12, 12], 50, 0, 48),
    ("3.11", [[4, 9], [9, 8]], [22, 32], 12, 2, 8),
    ("3.29", [[2, 2], [2, 0]], [16, 12], 44, 42, 0),
]
for bid, gram, c2, b3, b3y, mk3 in R2:
    ordinary(bid, len(gram), gram, c2, b3,
             {"method": "lemma_blowup", "b3Y": b3y, "minusK3": mk3},
             "rank-two semi-Fano block (curve blow-up family)")

B3Y_312 = {2: 20, 3: 10, 4: 4, 5: 0}
B3_312 = {2: 30, 3: 28, 4: 30, 5: 34}
for d in (2, 3, 4, 5):
    ordinary(f"3.12_{d}", 2, [[2 * d, 2 * d], [2 * d, 2 * d - 2]],
             [12 + 4 * d, 8 + 4 * d], B3_312[d],
             {"method": "lemma_blowup", "b3Y": B3Y_312[d],
              "minusK3": 8 * (d - 1)},
             "double cover of a quadric branched in a degree-(2,2d) surface")
for d in (2, 3, 4, 5):
    ordinary(f"3.13_{d}", 2, [[2 * d, 6], [6, 2]], [4 * d + 12, 18],
             8 * d + 2,
             {"method": "lemma_blowup", "b3Y": 0, "minusK3": 8 * d},
             "conic-bundle semi-Fano over P2")
B3Y_314 = {1: 8, 2: 6, 3: 4, 4: 2, 5: 0}
for d in (1, 2, 3, 4, 5):
    ordinary(f"3.14_{d}", 2, [[2 * d, 4], [4, 0]], [12 + 4 * d, 12],
             12 + 6 * d,
             {"method": "lemma_blowup", "b3Y": B3Y_314[d], "minusK3": 8 * d},
             "anticanonical-pencil blow-up of a degree-d del Pezzo x P1")

# ------------------------------------------------------------ involution
# 3.21 and the 3.22_d family: double covers of rank-1 blocks, c2bar via the
# rank-1 formula (24 - K^3)/r applied to the quotient.
# ordinary_ok=False: used in the ordinary role, 3.21 and 3.22_d carry the
# same (N, c2bar, b3) data as 3.8 entries already in the catalog, so they
# would only duplicate matches.
involution("3.21", 1, [[4]], [20], 38, 18, -16,
           {"method": "double_cover", "b3X": 0, "b1C": 18, "rho": 1,
            "c2": {"method": "rank1_fano", "r": 2, "minusK3": 16}},
           "anti-symplectic double cover of a rank-one block",
           ordinary_ok=False)
D322 = {1: (42, 108, 46), 2: (20, 66, 26), 3: (10, 48, 18),
        4: (4, 38, 14), 5: (0, 32, 12)}
for d, (b3x, b3, b3p) in D322.items():
    involution(f"3.22_{d}", 1, [[2 * d]], [24 + 2 * d], b3, b3p, -2 * d,
               {"method": "double_cover", "b3X": b3x, "b1C": 2 * d + 2,
                "rho": 1,
                "c2": {"method": "rank1_fano", "r": 1, "minusK3": 2 * d}},
               "anti-symplectic double cover of a rank-one block",
               ordinary_ok=False)

COVERS = [
    ("3.23_6", 2, [[2, 4], [4, 2]], [18, 18], 32, 14, -12,
     0, 14, [18, 18], [6, 6]),
    ("3.23_8", 2, [[4, 4], [4, 2]], [20, 18], 34, 16, -14,
     0, 16, [22, 18], [8, 6]),
    ("3.24", 3, [[0, 2, 2], [2, 0, 2], [2, 2, 0]], [12, 12, 12], 30, 14,
     -12, 0, 14, [12, 12, 12], [4, 4, 4]),
    ("3.28", 2, [[2, 2], [2, 0]], [26, 24], 104, 44, 0,
     42, 2, [16, 12], [2, 0]),
]
for (bid, rank, gram, c2, b3, b3p, chic, b3x, b1c, c2x, mkr) in COVERS:
    involution(bid, rank, gram, c2, b3, b3p, chic,
               {"method": "double_cover", "b3X": b3x, "b1C": b1c,
                "rho": rank,
                "c2": {"method": "cover_c2", "c2barX": c2x,
                       "minus_k_row": mkr}},
               "anti-symplectic double cover of a rank-two block")

B3_325 = {2: (62, 24), 3: (44, 16), 4: (34, 12), 5: (28, 10)}
for d, (b3, b3p) in B3_325.items():
    involution(f"3.25_{d}", 2, [[2 * d, 2 * d], [2 * d, 2 * d - 2]],
               [24 + 2 * d, 22 + 2 * d], b3, b3p, -(2 * d - 2),
               {"method": "double_cover", "b3X": B3Y_312[d], "b1C": 2 * d,
                "rho": 2,
                "c2": {"method": "cover_c2",
                       "c2barX": [12 + 4 * d, 8 + 4 * d],
                       "minus_k_row": [2 * d, 2 * d - 2]}},
               "anti-symplectic double cover of a quadric-cover block")
for d in (2, 3, 4, 5):
    involution(f"3.26_{d}", 2, [[2 * d, 6], [6, 2]], [24 + 2 * d, 18],
               20 + 2 * d, 2 + 2 * d, -2 * d,
               {"method": "double_cover", "b3X": 0, "b1C": 2 * d + 2,
                "rho": 2,
                "c2": {"method": "cover_c2", "c2barX": [4 * d + 12, 18],
                       "minus_k_row": [2 * d, 6]}},
               "anti-symplectic double cover of a conic-bundle block")
for d in (1, 2, 3, 4, 5):
    involution(f"3.27_{d}", 2, [[2 * d, 4], [4, 0]], [24 + 2 * d, 12],
               40 - 2 * d, 12, -2 * d,
               {"method": "double_cover", "b3X": 10 - 2 * d,
                "b1C": 2 * d + 2, "rho": 2,
                "c2": {"method": "cover_c2", "c2barX": [12 + 4 * d, 12],
                       "minus_k_row": [2 * d, 4]}},
               "anti-symplectic double cover of a del Pezzo-pencil block")

SMOOTHED = [
    ("5.14", 2, [[0, 2], [2, 0]], 96, 32, -16, [4, 4]),
    ("5.15_1", 1, [[2]], 108, 36, -18, [6]),
    ("5.15_2", 2, [[2, 2], [2, 0]], 96, 32, -16, [6, 4]),
    ("5.15_3", 3, [[2, 2, 2], [2, 0, 2], [2, 2, 0]], 84, 28, -14,
     [6, 4, 4]),
]
for bid, rank, gram, b3, b3p, chic, mkr in SMOOTHED:
    involution(bid, rank, gram, [3 * v for v in mkr], b3, b3p, chic,
               {"method": "smoothed", "r": rank, "minus_k_row": mkr},
               "smoothing of a non-symplectic-involution K3 cone block")


def render() -> str:
    """The catalog document, as main() writes it."""
    doc = {"format": "g2tcs-block-catalog", "version": 1, "blocks": BLOCKS}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main():
    out = os.path.join(os.path.dirname(__file__), "..",
                       "src", "g2tcs", "data", "catalog.json")
    with open(out, "w") as fh:
        fh.write(render())
    print(f"wrote {len(BLOCKS)} blocks")


if __name__ == "__main__":
    main()
