"""Nearest-neighbor matching on a synthetic scene, step by step.

Generates a labeled two-view scene, matches descriptors by brute force,
and compares the raw matches against the ratio test and the mutual check.
"""
import numpy as np

from adalam import (
    ImageSize,
    SynthConfig,
    generate_scene,
    match_prf,
    mutual_nn_filter,
    nn_match,
    ratio_test_filter,
)

size = ImageSize(1000, 1000)
scene = generate_scene(SynthConfig(
    size1=size, size2=size,
    n_patches=5, keypoints_per_patch=20, n_outliers=233,
    noise_sigma=0.5, rng_seed=0,
))
print(f"scene: {len(scene.matches)} keypoints per image, "
      f"{int(scene.gt_inlier.sum())} true inliers "
      f"({scene.inlier_ratio:.1%} inlier ratio)")

# Brute-force descriptor matching. The synthetic descriptors of true
# correspondences are close, so most matches land on the right keypoint.
matches = nn_match(scene.k1, scene.k2)
agree = np.count_nonzero(matches.idx2 == scene.matches.idx2)
print(f"nn_match recovers {agree}/{len(matches)} planted correspondences")

# The ratio test keeps distinctive matches only. Like every filter, it
# returns the rows of its input that it keeps.
for threshold in (0.7, 0.8, 0.9):
    kept = ratio_test_filter(scene.matches, threshold)
    report = match_prf(kept, scene.gt_inlier)
    print(f"ratio <= {threshold}: {len(kept):3d} kept, "
          f"precision {report.precision:.3f}, recall {report.recall:.3f}")

# The mutual check demands agreement in both matching directions.
mutual = mutual_nn_filter(scene.k1, scene.k2, matches)
print(f"mutual check keeps {len(mutual)}/{len(matches)} matches")
