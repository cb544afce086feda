"""Count the banded products that differ in any bit from the dense product.

    OPENBLAS_NUM_THREADS=1 python3 tools/blas_order_sweep.py [--max-n N]

Run it from the root of a source checkout: pdmsusy is imported from `src/`.
For every n of the sweep (16 to 299, and within 5 of 256, 384, 512, 768,
1024, 1601, 2048, 3201 and 4096, up to --max-n), for the half-widths
(wx, wy) = (1, 1), (2, 1), (1, 2), (2, 2) and (3, 1), with flip off and on,
it draws random complex bands X and Y (entries of magnitude 1e-3 to 1e6)
and compares `discrete._band_product(x, y, flip)` with the band of the
n x n np.matmul X Y, or with flip of (X P)(Y P), the dense operands' columns
reversed.  It prints one JSON line: numpy's version and BLAS, the BLAS
thread setting, the number of products, and those that differ in any bit
of an entry inside the matrix.

The outcome is a fact about one BLAS build, core type and thread count, not
a property of the code, so no test asserts it.  The full sweep runs 3,670
dense products, about 40 minutes at one thread, and holds three n x n
complex arrays at once (0.8 GB at n = 4096).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from pdmsusy import discrete          # noqa: E402

WIDTHS = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1))
SEAMS = (256, 384, 512, 768, 1024, 1601, 2048, 3201, 4096)


def sizes(max_n: int) -> list:
    near = {m + d for m in SEAMS for d in range(-5, 6)}
    return sorted(n for n in set(range(16, 300)) | near if 16 <= n <= max_n)


def random_band(rng, n: int, w: int) -> np.ndarray:
    """Diagonal-by-row storage of a random complex band of half-width w,
    zero where a column leaves the matrix."""
    band = (rng.standard_normal((n, 2 * w + 1))
            + 1j * rng.standard_normal((n, 2 * w + 1)))
    band *= 10.0 ** rng.uniform(-3.0, 6.0, size=band.shape)
    cols = np.arange(n)[:, None] + np.arange(-w, w + 1)
    band[(cols < 0) | (cols >= n)] = 0
    return band


def dense(band: np.ndarray, flip: bool) -> np.ndarray:
    """The n x n matrix stored in band, its columns reversed with flip."""
    n, w = band.shape[0], band.shape[1] // 2
    out = np.zeros((n, n), dtype=complex)
    for d in range(2 * w + 1):
        i = np.arange(max(0, w - d), min(n, n + w - d))
        cols = i + d - w
        out[i, n - 1 - cols if flip else cols] = band[i, d]
    return out


def differs(band: np.ndarray, full: np.ndarray) -> bool:
    """Whether an entry of band inside the matrix differs in any bit from
    the same entry of the dense product full."""
    n, w = band.shape[0], band.shape[1] // 2
    for d in range(2 * w + 1):
        i = np.arange(max(0, w - d), min(n, n + w - d))
        if not np.array_equal(band[i, d].view(np.uint64),
                              full[i, i + d - w].view(np.uint64)):
            return True
    return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    products, cases = 0, []
    for n in sizes(args.max_n):
        for wx, wy in WIDTHS:
            for flip in (False, True):
                x, y = random_band(rng, n, wx), random_band(rng, n, wy)
                full = dense(x, flip) @ dense(y, flip)
                products += 1
                if differs(discrete._band_product(x, y, flip), full):
                    cases.append([n, wx, wy, flip])
                del full
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "max_n": args.max_n, "seed": args.seed,
        "products": products, "differ": len(cases), "cases": cases,
        "seconds": round(time.perf_counter() - start, 1)}))


if __name__ == "__main__":
    main()
