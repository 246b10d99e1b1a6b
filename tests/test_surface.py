import pytest

from braidcovers import search, surface

# n -> (K2, c2, pa_Z)
EXPECTED = {
    2: (8, 4, 2),
    3: (7, 5, 1),
    4: (6, 6, 0),
    5: (5, 7, -1),
    6: (4, 8, -2),
    7: (3, 9, -3),
    8: (2, 10, -4),
    9: (1, 11, -5),
}


@pytest.mark.parametrize("n", sorted(EXPECTED))
def test_invariant_table(n):
    inv = surface.invariants_for(n)
    k2, c2, pa = EXPECTED[n]
    assert inv.chi == 1
    assert inv.K2 == k2
    assert inv.c2 == c2
    assert inv.pa_Z == pa
    assert inv.K2 + inv.c2 == 12  # Noether: K^2 + c_2 = 12 chi


def test_intersection_numbers():
    inv = surface.invariants_for(6)
    assert inv.Gamma2 == -24
    assert inv.Z2 == -6
    assert inv.GammaZ == 36
    assert (inv.R2, inv.RZ, inv.RR0) == (-2, 6, 0)
    inv2 = surface.invariants_for(2)
    assert (inv2.Gamma2, inv2.Z2, inv2.GammaZ) == (-8, -2, 12)


def test_general_type_window():
    for n in range(2, 10):
        assert surface.invariants_for(n).general_type
    assert not surface.invariants_for(10).general_type
    assert not surface.invariants_for(11).general_type


def test_z_forced_reducible_above_four():
    # a reduced irreducible Z would need pa_Z >= 0, which fails for n > 4
    for n in range(2, 5):
        inv = surface.invariants_for(n)
        assert not inv.z_reducible_forced
        assert inv.pa_Z >= 0
    for n in range(5, 10):
        inv = surface.invariants_for(n)
        assert inv.z_reducible_forced
        assert inv.pa_Z < 0


def test_degree_validation():
    with pytest.raises(ValueError):
        surface.invariants_for(1)
    with pytest.raises(ValueError):
        surface.invariants_for(0)


def test_json_dict_round_trip():
    inv = surface.invariants_for(4)
    doc = inv.to_json_dict()
    assert doc["n"] == 4 and doc["K2"] == 6 and doc["general_type"] is True
    assert set(doc) == {"n", "chi", "K2", "c2", "pa_Z", "Gamma2", "Z2",
                        "GammaZ", "R2", "RZ", "RR0", "general_type",
                        "z_reducible_forced"}


def test_genus_and_adjoint_consistency():
    # 2 pa(Z) - 2 = Z.(Z + R.Z direction): the branch curve Z moves in a
    # genus-2 fibration, so its arithmetic genus must match its
    # self-intersection and its meeting with the ramification data.
    for n in range(2, 13):
        inv = surface.invariants_for(n)
        assert 2 * inv.pa_Z - 2 == inv.Z2 + (inv.Z2 + inv.RZ)
        # R0^2 = Gamma.R0 = 8 - 4n forces R.R0 = 0 in
        # 4 R.R0 + (8 - 4n) = 8 - 4n
        assert 4 * inv.RR0 + (8 - 4 * n) == 8 - 4 * n


def test_existence_verdict():
    empty = search.enumerate_fixed_sigma(5)
    gone = surface.existence_verdict(5, empty)
    assert not gone.exists
    assert gone.total_representations == 0
    assert "no degree-5 cover" in str(gone)

    found, _ = search.classify(3)
    here = surface.existence_verdict(3, found)
    assert here.exists
    assert here.total_representations == 240
    assert here.isomorphism_classes == 40
    assert "240" in str(here) and "40" in str(here)
    assert here.to_json_dict()["isomorphism_classes"] == 40

    bare = search.enumerate_fixed_sigma(3)
    plain = surface.existence_verdict(3, bare)
    assert plain.isomorphism_classes is None
    assert "conjugacy classes" not in str(plain)

    with pytest.raises(ValueError):
        surface.existence_verdict(4, bare)  # degree mismatch
