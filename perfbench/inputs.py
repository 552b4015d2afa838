"""Seeded input generators for the benchmark workloads.

Nothing is downloaded: the patch workloads sample a synthesized grayscale
image, and the switching workload uses a planted heterogeneous-sparsity
matrix. The same seed always gives byte-identical files.
"""
from __future__ import annotations

import os

import numpy as np


def synth_image(seed: int, tiles: int = 16, tile: int = 32) -> np.ndarray:
    """8-bit test image: a grid of gradient, edge, disk and grating tiles.

    The four tile kinds come in equal numbers and each kind's contrast and
    scale parameters are evenly spaced over a fixed range; the seed shuffles
    where tiles go and draws their orientations, positions and the noise.
    This keeps the learners' errors close from one seed to the next while
    the pixels differ.
    """
    rng = np.random.default_rng(seed)
    count = tiles * tiles
    kinds = np.repeat(np.arange(4), count // 4)
    rng.shuffle(kinds)
    # one evenly spaced level per tile of a kind, in shuffled order
    level = np.empty(count)
    for k in range(4):
        where = np.flatnonzero(kinds == k)
        level[where] = rng.permutation(np.linspace(0.0, 1.0, where.size))
    yy, xx = np.mgrid[0:tile, 0:tile].astype(np.float64)
    img = np.empty((tiles * tile, tiles * tile))
    for t in range(count):
        lv = level[t]
        phi = rng.uniform(0.0, 2.0 * np.pi)
        u = np.cos(phi) * (xx - tile / 2) + np.sin(phi) * (yy - tile / 2)
        block = 128.0 + rng.uniform(-15.0, 15.0) + (10.0 + 30.0 * lv) * u / tile
        if kinds[t] == 1:  # straight step edges through the tile
            for _ in range(2):
                psi = rng.uniform(0.0, 2.0 * np.pi)
                v = np.cos(psi) * (xx - tile / 2) + np.sin(psi) * (yy - tile / 2)
                block += np.where(v > rng.uniform(-8.0, 8.0), 20.0 + 40.0 * lv, 0.0)
        elif kinds[t] == 2:  # flat disks: curved edges
            for _ in range(3):
                cy, cx = rng.uniform(4.0, tile - 4.0, 2)
                r = 3.0 + 9.0 * lv
                sign = rng.choice((-1.0, 1.0))
                block += sign * 50.0 * ((yy - cy) ** 2 + (xx - cx) ** 2 < r * r)
        elif kinds[t] == 3:  # oriented grating: texture
            period = 3.0 + 9.0 * lv
            block += 25.0 * np.sin(2.0 * np.pi * u / period + rng.uniform(0.0, 2.0 * np.pi))
        r0, c0 = divmod(t, tiles)
        img[r0 * tile:(r0 + 1) * tile, c0 * tile:(c0 + 1) * tile] = block
    img += rng.normal(0.0, 4.0, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def planted_matrix(seed: int, m: int, n: int, p: int, snr_db: float = 20.0):
    """Samples that need different sparsity: half 1-sparse, half 4-sparse.

    Returns (Y, planted_nnz). The dictionary is Gaussian with unit atoms,
    amplitudes are random signs times U(1, 2), columns are shuffled, and
    white noise is added at the given signal-to-noise ratio.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    X = np.zeros((n, p))
    levels = np.where(np.arange(p) < p // 2, 1, 4)
    rng.shuffle(levels)
    for j, k in enumerate(levels):
        rows = rng.choice(n, size=k, replace=False)
        X[rows, j] = rng.choice((-1.0, 1.0), size=k) * rng.uniform(1.0, 2.0, size=k)
    clean = A @ X
    noise_sd = np.sqrt(np.mean(clean**2) / 10.0 ** (snr_db / 10.0))
    Y = clean + rng.normal(0.0, noise_sd, clean.shape)
    return Y, int(levels.sum())


# The package is looked up at call time, so a traced run sees the wrapped
# functions.

def write_patch_inputs(seed: int, out_dir: str, count: int, holdout: bool):
    """Write the image and its training (and held-out) patch files.

    Patches are cut by the program's own ``batchsvd patches`` verb, with
    seeds derived from ``seed`` so training and held-out sets differ.
    Returns the list of (label, path) files produced.
    """
    import batchsvd
    from batchsvd.cli import main

    image = os.path.join(out_dir, "image.pgm")
    batchsvd.save_pgm(image, synth_image(seed))
    train_seed, holdout_seed = np.random.SeedSequence(seed).generate_state(2)
    made = [("train", os.path.join(out_dir, "train.mat"))]
    if holdout:
        made.append(("holdout", os.path.join(out_dir, "holdout.mat")))
    for (_, path), pseed in zip(made, (train_seed, holdout_seed)):
        argv = ["patches", "--in", image, "--size", "8", "--count", str(count),
                "--seed", str(int(pseed)), "--out", path]
        if main(argv) != 0:
            raise RuntimeError(f"batchsvd {' '.join(argv)} failed")
    return made


def write_planted_inputs(seed: int, out_dir: str, shape):
    """Write the planted matrix; returns ([(label, path)], planted_nnz)."""
    import batchsvd

    Y, nnz = planted_matrix(seed, *shape)
    path = os.path.join(out_dir, "train.mat")
    batchsvd.save_matrix(path, Y)
    return [("train", path)], nnz
