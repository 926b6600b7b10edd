"""Kloosterman sums: direct, scanned, lifted, recursive, and the circle bridge."""

import json

import pytest

from test_constructions import OTHER_REPRESENTATIONS
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab import kloosterman as kl
from walshlab import suites
from walshlab.cli import main
from walshlab.gf2n import (
    FieldCtx,
    FieldError,
    NotInSubfield,
    TooLarge,
    ZeroMu,
    create_ctx,
    default_ctx,
    default_field,
)


def _value_set(values):
    # the sorted distinct k_m(lambda) over nonzero lambda, as the CLI reports it
    return tuple(sorted(set(values[1:].tolist())))


def _direct_scalar(ctx, a, b):
    # from-scratch scalar oracle (no tables)
    total = 0
    for x in range(1, ctx.q):
        t = ctx.mul(a, x) ^ ctx.mul(b, ctx.inv(x))
        total += 1 - 2 * ctx.tr_abs(t)
    return total


def test_k_of_zero_is_minus_one():
    for m in (1, 2, 3, 4, 6):
        ctx = default_field(m)
        assert kl.kloosterman_sum(ctx, 0, 1) == -1
        assert kl.kloosterman_sum(ctx, 1, 0) == -1


def test_k_all_zero_arguments():
    ctx = default_field(3)
    assert kl.kloosterman_sum(ctx, 0, 0) == ctx.q - 1


@pytest.mark.parametrize("a, b", [(8, 1), (1, 8), (-1, 1), (1, -1)])
def test_k_rejects_non_elements(a, b):
    with pytest.raises(FieldError):
        kl.kloosterman_sum(default_field(3), a, b)


def test_k2_hand_values():
    ctx = default_field(2)
    # F_4 = {0, 1, w, w^2}: k(1) = 3 and k(w) = k(w^2) = -1, by 3-term sums
    assert _direct_scalar(ctx, 1, 1) == 3
    assert kl.kloosterman_sum(ctx, 1, 1) == 3
    for w in (2, 3):
        assert _direct_scalar(ctx, w, 1) == -1
        assert kl.kloosterman_sum(ctx, w, 1) == -1


def test_k_symmetry_exhaustive_m4():
    ctx = default_field(4)
    for a in range(1, 16):
        for b in range(1, 16):
            ab = ctx.mul(a, b)
            assert kl.kloosterman_sum(ctx, a, b) == kl.kloosterman_sum(ctx, ab, 1)
            assert kl.kloosterman_sum(ctx, a, b) == kl.kloosterman_sum(ctx, 1, ab)


def test_scan_matches_direct_oracle():
    for m in (2, 3, 4, 5, 6):
        ctx = default_field(m)
        sc = kl.scan(m)
        for lam in range(ctx.q):
            assert int(sc[lam]) == _direct_scalar(ctx, lam, 1)


@pytest.mark.parametrize("m, poly", OTHER_REPRESENTATIONS)
def test_qsets_k_n_is_the_kloosterman_sum_in_other_representations(m, poly):
    # the qsets suite sums k_n over the chart in GF(2^m), not over GF(2^2m)
    ctx = create_ctx(m, poly)
    mus = ctx.subgroup("subfield_units")
    assert E._q_sums(ctx)[5].tolist() == [kl.kloosterman_sum(ctx, mu, 1) for mu in mus]


def test_scan_value_sets():
    assert _value_set(kl.scan(3)) == (-5, -1, 3)
    assert _value_set(kl.scan(4)) == (-5, -1, 3, 7)
    for m in range(3, 11):
        assert _value_set(kl.scan(m)) == kl.lachaud_wolfmann_set(m)


def test_lachaud_wolfmann_set_is_the_full_interval_filter():
    for m in range(1, 19):
        bound = 1 << (m + 2)  # the old comprehension tested every s in [-bound, bound]
        want = tuple(sorted(s for s in range(-bound, bound + 1) if s % 4 == 3 and s * s <= bound))
        assert kl.lachaud_wolfmann_set(m) == want, m


def test_scan_congruence_and_weil():
    for m in range(3, 11):
        sc = kl.scan(m)
        for lam in range(1 << m):
            k = int(sc[lam])
            assert k % 4 == 3
            if lam:
                assert k * k <= 4 << m  # |k| <= 2 sqrt(2^m)


def test_frobenius_invariance():
    for m in (3, 4, 5):
        ctx = default_field(m)
        sc = kl.scan(m)
        for a in range(ctx.q):
            assert sc[a] == sc[ctx.sq(a)]


def test_small_m_edge_values():
    # m = 1: k_1(1) = +1 sits outside the mod-4 class; reported, not gated
    assert kl.scan(1).tolist() == [-1, 1]


def test_find_mu():
    assert 2 in kl.find_mu(2, -1)  # w in F_4
    for m in (3, 4, 5):
        mus = kl.find_mu(m, -1)
        assert mus == sorted(mus) and mus
        sc = kl.scan(m)
        assert all(int(sc[mu]) == -1 for mu in mus)
    for m in (3, 4, 5, 6):
        assert kl.find_mu(m, -3) == []  # -3 is 1 mod 4


def test_unit_circle_sum_m2():
    ctx = default_ctx(2)
    # w embeds as the subfield unit with k = -1; the circle sum is +1
    kmap = kl.subfield_k_map(ctx)
    mus = [mu for mu, k in kmap.items() if mu and k == -1]
    assert mus
    for mu in mus:
        assert kl.unit_circle_sum(ctx, mu) == 1


def test_unit_circle_identity_exhaustive():
    for m in range(2, 9):
        ctx = default_ctx(m)
        kmap = kl.subfield_k_map(ctx)
        for mu in ctx.subgroup("subfield_units"):
            assert kl.unit_circle_sum(ctx, mu) == -kmap[mu]


def test_unit_circle_sum_rejects_bad_mu():
    ctx = default_ctx(3)
    nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
    with pytest.raises(NotInSubfield):
        kl.unit_circle_sum(ctx, nonsub)
    with pytest.raises(ZeroMu):
        kl.unit_circle_sum(ctx, 0)


def test_subfield_k_map_matches_direct():
    for m in (2, 3, 4):
        ctx = default_ctx(m)
        kmap = kl.subfield_k_map(ctx)
        small = default_field(m)
        # the map respects the embedding: same multiset of values
        assert sorted(kmap.values()) == sorted(
            _direct_scalar(small, lam, 1) for lam in range(small.q))
        # and pointwise: k over the subfield computed inside the big field
        for mu, k in kmap.items():
            if mu == 0:
                continue
            total = 0
            for s in ctx.subgroup("subfield_units"):
                total += 1 - 2 * ctx.tr_sub(ctx.mul(mu, s) ^ ctx.inv(s))
            assert total == k


def test_subfield_k_map_builds_no_table_of_the_big_field(monkeypatch):
    # the embedding root comes from scalar Horner; only GF(2^m), whose
    # Kloosterman scan needs its tables, may build them
    big_fields = []
    tables = FieldCtx.tables

    def guarded(self):
        if any(self is big for big in big_fields):
            raise AssertionError(f"the exp/log tables of GF(2^{self.n}) were built")
        return tables(self)

    def fresh_ctx(m):  # a fresh field, so no memo was filled before
        big_fields.append(create_ctx(m))
        return big_fields[-1]

    monkeypatch.setattr(FieldCtx, "tables", guarded)
    monkeypatch.setattr(suites, "default_ctx", fresh_ctx)
    for m in range(2, 7):
        ctx = fresh_ctx(m)
        kmap = kl.subfield_k_map(ctx)
        assert sorted(kmap.values()) == sorted(kl.scan(m).tolist())
        # unit_circle_sum is -k_m(mu), and it reads no exp/log table either
        assert C.mus_with_k(ctx, -1) == [mu for mu in ctx.subgroup("subfield_units")
                                         if kl.unit_circle_sum(ctx, mu) == 1]
        [record] = suites.run_suite("fkl", range(m, m + 1))
        assert record["pass"], record


def test_lifted_s1_equals_base():
    for m in (2, 3, 4):
        sc = kl.scan(m)
        for a in range(1 << m):
            assert kl.kloosterman_lifted_direct(m, 1, a) == int(sc[a])


def test_lifted_a0_is_minus_one():
    for m, s in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert kl.kloosterman_lifted_direct(m, s, 0) == -1


def test_recursion_seeds_and_closed_form():
    sc = kl.scan(3)
    rec2 = kl.kloosterman_recursive(3, 2, sc)
    for a in range(8):
        assert int(rec2[a]) == -int(sc[a]) ** 2 + (1 << 4)
    rec1 = kl.kloosterman_recursive(3, 1, sc)
    assert rec1.tolist() == sc.tolist()


@pytest.mark.parametrize("m,s", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_recursion_equals_direct_lift(m, s):
    sc = kl.scan(m)
    rec = kl.kloosterman_recursive(m, s, sc)
    for a in range(1, 1 << m):
        assert int(rec[a]) == kl.kloosterman_lifted_direct(m, s, a)
    # a = 0 sits outside the recurrence: the lifted sum is -1 at every level
    assert kl.kloosterman_lifted_direct(m, s, 0) == -1


def test_scan_json_shape(capsys):
    assert main(["kloosterman", "--m", "3", "--scan", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["m"] == 3
    assert len(d["values"]) == 8
    assert d["values"][0] == {"lambda": "0x0", "k": -1}
    assert d["value_set"] == [-5, -1, 3]


def _no_tables(self):
    raise AssertionError("an exp/log table was built")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "lemma23", "--m", "28"],
    ["kloosterman", "--m", "28", "--scan"],
    ["kloosterman", "--m", "28", "--target", "-1"],
], ids=["verify", "scan", "target"])
def test_scan_over_physical_memory_exits_3_before_any_table(argv, monkeypatch, capsys):
    # the m = 28 scan is estimated at about 16.5 GiB; on a 7 GB machine the
    # verify request was once killed by the kernel (exit 137).  The memory
    # reading is patched, so the test allocates nothing on any machine
    monkeypatch.setattr(kl, "PHYSICAL_MEMORY", 8 << 30)
    monkeypatch.setattr(FieldCtx, "tables", _no_tables)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"{(kl.SCAN_BYTES_PER_POINT << 28) >> 20} MiB" in err


def test_scan_estimate_is_checked_at_its_boundary(monkeypatch):
    monkeypatch.setattr(kl, "PHYSICAL_MEMORY", kl.SCAN_BYTES_PER_POINT << 10)
    # exactly at the estimate the scan runs; one degree more and it is refused
    assert kl.scan(10).shape == (1 << 10,)
    monkeypatch.setattr(FieldCtx, "tables", _no_tables)
    with pytest.raises(TooLarge):
        kl.scan(11)


def test_kloosterman_sum_estimate_is_checked_at_its_boundary(monkeypatch, capsys):
    # kloosterman --a: exactly at the estimate the sum runs; one degree more
    # and it exits 3 before any array or table is built
    monkeypatch.setattr(kl, "PHYSICAL_MEMORY", kl.SUM_BYTES_PER_POINT << 10)
    assert main(["kloosterman", "--m", "10", "--a", "0x1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(FieldCtx, "tables", _no_tables)
    assert main(["kloosterman", "--m", "11", "--a", "0x1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "the sum over GF(2^11) needs about" in err
    with pytest.raises(TooLarge):
        kl.kloosterman_lifted_direct(3, 4, 1)  # GF(2^12)
