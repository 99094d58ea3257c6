import torusppc


def test_every_export_resolves():
    missing = [name for name in torusppc.__all__ if not hasattr(torusppc, name)]
    assert missing == []
    assert len(set(torusppc.__all__)) == len(torusppc.__all__)
