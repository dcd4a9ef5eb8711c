import botlstm


def test_every_exported_name_resolves():
    missing = [name for name in botlstm.__all__ if not hasattr(botlstm, name)]
    assert missing == []
    assert len(set(botlstm.__all__)) == len(botlstm.__all__)
