import sys
from pathlib import Path

import numpy as np
import pytest

from floortag import clustering, pipeline, simulate
from floortag.clustering import (
    Roi,
    cluster_keypoints,
    clusters_by_size,
    default_merge_dist,
    roi_from_cluster,
    select_primary_cluster,
)
from floortag.geometry import CameraIntrinsics
from floortag.identify import ReferenceBank
from floortag.warehouse import generate_grid_map

ROOT = Path(__file__).resolve().parents[1]


def disc(rng, centre, radius, n):
    angles = rng.uniform(0, 2 * np.pi, n)
    radii = radius * np.sqrt(rng.uniform(0, 1, n))
    return np.column_stack([centre[0] + radii * np.cos(angles), centre[1] + radii * np.sin(angles)])


def test_single_cloud_collapses_to_one_cluster():
    rng = np.random.default_rng(1)
    pts = disc(rng, (300, 250), 50, 40)
    cs = cluster_keypoints(pts, merge_dist=200)
    assert len(cs) == 1
    assert len(cs[0]) == 40


def test_two_separated_discs_stay_pure():
    rng = np.random.default_rng(2)
    a = disc(rng, (100, 100), 50, 40)
    b = disc(rng, (700, 100), 50, 40)
    pts = np.vstack([a, b])
    cs = cluster_keypoints(pts, merge_dist=200)
    assert len(cs) == 2
    # Brute-force nearest-mean oracle: every point belongs to its closest mean.
    means = np.array([c.mean for c in cs])
    for ci, c in enumerate(cs):
        for idx in c.members:
            d = np.linalg.norm(means - pts[idx], axis=1)
            assert np.argmin(d) == ci
    # Purity: each cluster holds points of exactly one disc.
    for c in cs:
        sides = set(int(i >= 40) for i in c.members)
        assert len(sides) == 1


def test_three_clouds_with_capped_clusters():
    rng = np.random.default_rng(3)
    pts = np.vstack(
        [disc(rng, (150, 150), 40, 30), disc(rng, (700, 160), 40, 30), disc(rng, (400, 600), 40, 30)]
    )
    cs = cluster_keypoints(pts, merge_dist=150)
    assert len(cs) == 3
    assert sum(len(c) for c in cs) == 90


def test_membership_preserved_through_merging():
    rng = np.random.default_rng(4)
    pts = disc(rng, (400, 300), 120, 77)
    cs = cluster_keypoints(pts, merge_dist=500)
    assert sum(len(c) for c in cs) == 77
    all_members = np.concatenate([c.members for c in cs])
    assert sorted(all_members.tolist()) == list(range(77))


def test_post_merge_means_separated():
    rng = np.random.default_rng(5)
    pts = np.vstack([disc(rng, (100, 100), 60, 50), disc(rng, (420, 110), 60, 50)])
    merge_dist = 180.0
    cs = cluster_keypoints(pts, merge_dist=merge_dist)
    means = np.array([c.mean for c in cs])
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= merge_dist


def test_permutation_invariant_partition():
    rng = np.random.default_rng(6)
    pts = np.vstack([disc(rng, (120, 130), 50, 35), disc(rng, (600, 500), 50, 35)])
    cs1 = cluster_keypoints(pts, merge_dist=200)
    perm = rng.permutation(len(pts))
    cs2 = cluster_keypoints(pts[perm], merge_dist=200)

    sets1 = sorted((frozenset(c.members.tolist()) for c in cs1), key=min)
    sets2 = sorted((frozenset(perm[c.members].tolist()) for c in cs2), key=min)
    assert sets1 == sets2


def test_a_stray_point_is_dropped_not_absorbed():
    # One false match on the floor, farther than merge_dist from the cloud:
    # absorbing it would stretch the sticker's box over the floor.
    pts = np.vstack([disc(np.random.default_rng(11), (300, 250), 50, 40), [[900.0, 700.0]]])
    cs = cluster_keypoints(pts, merge_dist=200)
    assert len(cs) == 1
    assert sorted(cs[0].members.tolist()) == list(range(40))
    roi = roi_from_cluster(cs[0], pts, width=1296, height=972)
    assert roi.x1 < 900 and roi.y1 < 700


def test_only_stray_clusters_keep_the_largest():
    pts = np.array([[0.0, 0.0], [3.0, 1.0], [500.0, 0.0], [0.0, 500.0]])
    cs = cluster_keypoints(pts, merge_dist=50)
    assert len(cs) == 1
    assert sorted(cs[0].members.tolist()) == [0, 1]


def test_a_stray_match_does_not_stretch_the_benchmark_roi(monkeypatch):
    # perfbench's sharp workload, harness seed 1, frame 0: one false match
    # ~200 px from the sticker once made its ROI 712x710 px instead of ~184x217.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import harness
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    wl = harness.WORKLOADS["sharp"]
    intr = harness.camera()
    wmap = generate_grid_map(wl.grid, wl.grid, harness.PITCH_M)
    pose, cfg = next(iter(harness.frame_specs(wl, wmap, intr, 1)))
    img, _ = simulate.render(wmap, intr, pose, cfg)
    rois = []
    real = clustering.roi_from_cluster

    def spy(*args, **kwargs):
        rois.append(real(*args, **kwargs))
        return rois[-1]

    monkeypatch.setattr(clustering, "roi_from_cluster", spy)
    result, _ = pipeline.process_frame(img, wmap, intr, ReferenceBank.build(wmap, intr),
                                       timestamp=0.0)
    assert result.outcome == pipeline.OUTCOME_LOCALISED
    assert len(rois) == 1
    assert max(rois[0].width, rois[0].height) < 300


def test_requires_points():
    with pytest.raises(ValueError):
        cluster_keypoints(np.empty((0, 2)), merge_dist=200)


def test_select_primary_by_count():
    cs = cluster_keypoints(
        np.vstack(
            [
                disc(np.random.default_rng(7), (100, 100), 30, 60),
                disc(np.random.default_rng(8), (600, 100), 30, 20),
                disc(np.random.default_rng(9), (350, 500), 30, 5),
            ]
        ),
        merge_dist=100,
    )
    primary = select_primary_cluster(cs)
    assert len(primary) == 60
    ordered = clusters_by_size(cs)
    assert [len(c) for c in ordered] == [60, 20, 5]


def test_select_primary_single_cluster_identity():
    cs = cluster_keypoints(np.array([[5.0, 5.0], [6.0, 5.0]]), merge_dist=50)
    assert select_primary_cluster(cs) is cs[0]


def test_select_primary_tie_breaks_on_mean_x():
    rng = np.random.default_rng(10)
    left = disc(rng, (100, 200), 20, 30)
    right = disc(rng, (400, 200), 20, 30)
    cs = cluster_keypoints(np.vstack([left, right]), merge_dist=100)
    assert len(cs) == 2
    primary = select_primary_cluster(cs)
    assert primary.mean[0] < 250


def test_roi_arithmetic():
    pts = np.array([[100.0, 100.0], [200.0, 200.0], [150.0, 130.0]])
    cs = cluster_keypoints(pts, merge_dist=1000)
    roi = roi_from_cluster(cs[0], pts, width=1000, height=1000, margin_factor=0.25)
    assert (roi.x0, roi.y0, roi.x1, roi.y1) == (75, 75, 225, 225)


def test_roi_clipped_to_image():
    pts = np.array([[5.0, 5.0], [60.0, 40.0]])
    cs = cluster_keypoints(pts, merge_dist=1000)
    roi = roi_from_cluster(cs[0], pts, width=64, height=48)
    assert roi.x0 >= 0 and roi.y0 >= 0
    assert roi.x1 <= 63 and roi.y1 <= 47


def test_roi_rejects_inverted():
    with pytest.raises(ValueError):
        Roi(10, 10, 10, 20)


def test_default_merge_dist_scales_with_camera():
    intr = CameraIntrinsics.reference_camera(binning=2)
    d = default_merge_dist(intr)
    assert d == pytest.approx(1.5 * 0.1 * intr.focal_px)
    assert default_merge_dist(CameraIntrinsics.reference_camera()) == pytest.approx(2 * d)
