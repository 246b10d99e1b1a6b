import braidcovers


def test_all_names_resolve():
    # a deletion must take its export with it
    missing = [name for name in braidcovers.__all__
               if not hasattr(braidcovers, name)]
    assert missing == []
    assert len(set(braidcovers.__all__)) == len(braidcovers.__all__)
