import spcakit


def test_export_list_sorted_unique_and_resolvable():
    names = spcakit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spcakit, name)]
    assert missing == []
