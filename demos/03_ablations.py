"""What each ingredient of the filter buys, measured on rotating patches.

Runs `adalam bench`: the full filter against three weakened variants
(no orientation/scale side information, no least-squares refit, and a
fixed 1 px residual threshold in place of the adaptive confidence test)
and the plain ratio test, over 10 scenes whose patches rotate at random,
where the side information actually separates inliers from outliers.
Each row gives the mean F1 over the scenes and the wall time.
"""
import sys

from adalam.cli import main

sys.exit(main(["bench", "--scenes", "10", "--rng-seed", "200"]))
