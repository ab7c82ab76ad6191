import collections

import pytest

from uga import autodiff as ad

MmdCall = collections.namedtuple(
    "MmdCall", "bandwidths fused grams_before grams_inside")


@pytest.fixture
def mmd_calls(monkeypatch):
    """One MmdCall per ad.mmd call, in call order: its bandwidths, whether
    it read an mmd_dists buffer, and the gram_dists products made since the
    previous ad.mmd call and inside this one."""
    calls, grams = [], [0]
    real_gram, real_mmd = ad.gram_dists, ad.mmd

    def gram_dists(*args, **kwargs):
        grams[0] += 1
        return real_gram(*args, **kwargs)

    def mmd(x, y, bandwidths, dists=None):
        before, grams[0] = grams[0], 0
        out = real_mmd(x, y, bandwidths, dists)
        calls.append(MmdCall(tuple(bandwidths), dists is not None, before, grams[0]))
        grams[0] = 0
        return out

    monkeypatch.setattr(ad, "gram_dists", gram_dists)
    monkeypatch.setattr(ad, "mmd", mmd)
    return calls
