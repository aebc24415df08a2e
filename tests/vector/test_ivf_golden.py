"""The vector lane's k-means and dequantized matrices, pinned to the
float (see :mod:`tests.ivf_golden`)."""

import numpy as np
import pytest

from repro.vector import build_ivf
from tests import ivf_golden as golden

GOLDEN = golden.load()


@pytest.mark.parametrize("codec", ["fp32", "int8"])
def test_kmeans_and_reconstruct_match_the_golden(embeddings, codec):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip("the digests were computed with numpy "
                    + GOLDEN["numpy"])
    ivf = build_ivf(embeddings, codec=codec)
    digests = golden.ivf_digests(ivf)
    assert digests["centroids"] == GOLDEN[codec]["centroids"]
    assert len(digests["reconstruct"]) == len(GOLDEN[codec]["reconstruct"])
    for cid, (got, pinned) in enumerate(zip(digests["reconstruct"],
                                            GOLDEN[codec]["reconstruct"])):
        assert got == pinned, (codec, cid)
