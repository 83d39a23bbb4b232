"""K-means grouping of matched keypoints into per-sticker clouds and ROI boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artwork import STICKER_SIZE_M
from .geometry import CameraIntrinsics

MAX_STICKERS_IN_VIEW = 3  # floor layout guarantees no more can appear at once
SEED_CLUSTERS = 4  # Lloyd iterations start from this many farthest-point seeds
MIN_CLUSTER_MEMBERS = 3  # smaller clusters are stray matches, not stickers
TYPICAL_VIEWING_DISTANCE_M = 1.0


@dataclass(frozen=True)
class Cluster:
    mean: np.ndarray  # (2,)
    members: np.ndarray  # indices into the clustered point array

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Roi:
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError(f"empty ROI ({self.x0},{self.y0},{self.x1},{self.y1})")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def default_merge_dist(intr: CameraIntrinsics) -> float:
    """1.5x the projected sticker size at the typical viewing distance."""
    return 1.5 * STICKER_SIZE_M * intr.focal_px / TYPICAL_VIEWING_DISTANCE_M


def cluster_keypoints(points, merge_dist: float) -> list[Cluster]:
    """Lloyd iterations from farthest-point seeds, then merge close means.

    Merging repeats while any two means sit closer than merge_dist, then
    clusters below MIN_CLUSTER_MEMBERS are dropped (stray false matches
    neither earn their own sticker nor stretch another's box), keeping the
    largest when none reaches it, and finally the closest pairs merge until
    at most MAX_STICKERS_IN_VIEW remain. Dropped points belong to no cluster.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    # Deterministic farthest-point seeding: anchored at the point nearest the
    # bounding-box top-left corner, then greedy max-min-distance picks. Corner
    # seeding starves the middle cloud when stickers line up.
    x0, y0 = pts.min(axis=0)
    first = int(np.argmin(((pts - (x0, y0)) ** 2).sum(axis=1)))
    seed_idx = [first]
    min_d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    while len(seed_idx) < min(SEED_CLUSTERS, len(pts)):
        nxt = int(np.argmax(min_d2))
        if min_d2[nxt] <= 1e-12:
            break
        seed_idx.append(nxt)
        min_d2 = np.minimum(min_d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    means = pts[seed_idx].astype(np.float64)

    assign = np.zeros(len(pts), dtype=np.int64)
    for _ in range(100):
        d2 = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new_means = []
        keep = []
        for k in range(len(means)):
            sel = assign == k
            if sel.any():
                new_means.append(pts[sel].mean(axis=0))
                keep.append(k)
        new_means = np.asarray(new_means)
        remap = np.empty(len(means), dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        assign = remap[assign]
        shift = (
            np.linalg.norm(new_means - means[keep], axis=1).max() if len(keep) else 0.0
        )
        means = new_means
        if shift < 0.1:
            break

    clusters = [
        Cluster(means[k], np.nonzero(assign == k)[0]) for k in range(len(means))
    ]

    def closest_pair():
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = float(np.linalg.norm(clusters[i].mean - clusters[j].mean))
                if best is None or d < best[0]:
                    best = (d, i, j)
        return best

    def merge(i: int, j: int):
        a, b = clusters[i], clusters[j]
        members = np.concatenate([a.members, b.members])
        mean = (a.mean * len(a) + b.mean * len(b)) / (len(a) + len(b))
        clusters[i] = Cluster(mean, np.sort(members))
        del clusters[j]

    while len(clusters) > 1:
        d, i, j = closest_pair()
        if d >= merge_dist:
            break
        merge(i, j)
    # A stray match lies at least merge_dist from every other cluster, so
    # absorbing it would stretch that cluster's box; it is dropped instead.
    clusters = [c for c in clusters if len(c) >= MIN_CLUSTER_MEMBERS] or [
        max(clusters, key=len)
    ]
    while len(clusters) > MAX_STICKERS_IN_VIEW:
        _, i, j = closest_pair()
        merge(i, j)
    return clusters


def select_primary_cluster(clusters: list[Cluster]) -> Cluster:
    """Largest cluster; ties resolved toward smaller mean x, then smaller mean y."""
    if len(clusters) < 1:
        raise ValueError("empty cluster list")
    return min(clusters, key=lambda c: (-len(c), c.mean[0], c.mean[1]))


def clusters_by_size(clusters: list[Cluster]) -> list[Cluster]:
    return sorted(clusters, key=lambda c: (-len(c), c.mean[0], c.mean[1]))


def roi_from_cluster(
    cluster: Cluster,
    points,
    width: int,
    height: int,
    margin_factor: float = 0.25,
    min_size: float | None = None,
) -> Roi:
    """Bounding box of the cluster members, padded per side and clipped to the image.

    Bounds are inclusive pixel coordinates; crop with x1 + 1 / y1 + 1.
    min_size guards against sparse clouds that cover only part of a sticker.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)[cluster.members]
    if len(pts) == 0:
        raise ValueError("empty cluster")
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    mx = margin_factor * (x1 - x0)
    my = margin_factor * (y1 - y0)
    if min_size is not None:
        mx = max(mx, (min_size - (x1 - x0)) / 2.0)
        my = max(my, (min_size - (y1 - y0)) / 2.0)
    rx0 = max(int(np.floor(x0 - mx)), 0)
    ry0 = max(int(np.floor(y0 - my)), 0)
    rx1 = min(int(np.ceil(x1 + mx)), width - 1)
    ry1 = min(int(np.ceil(y1 + my)), height - 1)
    if rx1 <= rx0:
        rx0, rx1 = max(rx0 - 1, 0), min(rx0 + 1, width - 1)
    if ry1 <= ry0:
        ry0, ry1 = max(ry0 - 1, 0), min(ry0 + 1, height - 1)
    return Roi(rx0, ry0, rx1, ry1)
