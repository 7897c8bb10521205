import json

import pytest

from quartic_galois.hecke_io import load_hecke_charpolys, store_hecke_charpolys
from quartic_galois.modsym import HeckeCharPoly, hecke_charpolys_multimodular


@pytest.fixture(scope="module")
def charpolys_37():
    cps = hecke_charpolys_multimodular(37, (2, 3, 5))
    return [cps[p] for p in (2, 3, 5)]


def test_roundtrip(tmp_path, charpolys_37):
    path = tmp_path / "hecke.json"
    store_hecke_charpolys(path, charpolys_37)
    loaded = load_hecke_charpolys(path)
    assert {p: cp.coeffs for p, cp in loaded.items()} == {
        cp.p: cp.coeffs for cp in charpolys_37
    }
    assert all(cp.N == 37 for cp in loaded.values())


def test_file_shape(tmp_path, charpolys_37):
    path = tmp_path / "hecke.json"
    store_hecke_charpolys(path, charpolys_37)
    obj = json.loads(path.read_text())
    assert obj["level"] == 37 and obj["weight"] == 2
    assert [op["p"] for op in obj["operators"]] == [2, 3, 5]
    for op in obj["operators"]:
        assert all(isinstance(c, str) for c in op["charpoly"])


def test_store_rejects_mixed_levels(tmp_path, charpolys_37):
    other = HeckeCharPoly(N=11, p=2, coeffs=(2, 1))
    with pytest.raises(ValueError):
        store_hecke_charpolys(tmp_path / "x.json", charpolys_37 + [other])


def test_store_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        store_hecke_charpolys(tmp_path / "x.json", [])


def _write(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return path


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_hecke_charpolys(path)


def test_load_rejects_bad_entries(tmp_path):
    base = {
        "level": 11,
        "weight": 2,
        "operators": [{"p": 2, "charpoly": ["2", "1"]}],
    }
    # this one is fine
    assert load_hecke_charpolys(_write(tmp_path, base))[2].coeffs == (2, 1)
    for mutate in (
        lambda o: o.pop("level"),
        lambda o: o.update(weight=4),
        lambda o: o["operators"][0].pop("p"),
        lambda o: o["operators"][0].update(charpoly=["2", "1", "0", "1"]),
        lambda o: o["operators"][0].update(charpoly=["2", "3"]),  # not monic
        lambda o: o["operators"][0].update(charpoly=["x", "1"]),
        lambda o: o["operators"].append({"p": 2, "charpoly": ["2", "1"]}),
        lambda o: o["operators"][0].update(p=4),  # not prime
        lambda o: o["operators"][0].update(p=1),
        lambda o: o["operators"][0].update(p="2"),
        lambda o: o["operators"][0].update(p=11),  # divides the level
        lambda o: o.update(operators=7),
        lambda o: o.update(operators=[5]),
        lambda o: o["operators"][0].update(charpoly="21"),  # not (2, 1)
        lambda o: o["operators"][0].update(charpoly=[2, 1]),
        # not level 1, where the constant charpoly has the right degree
        lambda o: o.update(level=True, operators=[{"p": 2, "charpoly": ["1"]}]),
    ):
        obj = json.loads(json.dumps(base))
        mutate(obj)
        with pytest.raises(ValueError):
            load_hecke_charpolys(_write(tmp_path, obj))
    # a JSON document that is not an object
    with pytest.raises(ValueError):
        load_hecke_charpolys(_write(tmp_path, 5))
