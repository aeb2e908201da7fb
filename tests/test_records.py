"""The package's records: validated tuples, immutable, with stable reprs, and
defined without ``dataclasses`` so that starting the CLI stays cheap."""

import subprocess
import sys

import pytest

from modulimotives import (
    BundleSpec,
    ChamberSpec,
    HiggsSpec,
    InvalidChamber,
    audit_fixed_loci,
    fixed_locus_12,
)
from modulimotives.higgs import AuditReport
from modulimotives.pairs import pair_cofactor_flip
from support import src_env

HIGGS = HiggsSpec(2, 1)


class TestRepr:
    @pytest.mark.parametrize(
        "record,text",
        [
            (ChamberSpec(g=2, e=3, i=1), "ChamberSpec(g=2, e=3, i=1)"),
            (BundleSpec(2, 1), "BundleSpec(g=2, d=1)"),
            (HIGGS, "HiggsSpec(g=2, d=1)"),
            (
                fixed_locus_12(HIGGS)[0],
                "FixedComponent(spec=HiggsSpec(g=2, d=1), kind='(1,2)', params=(0,), "
                "dimension=6, twist=4, chamber=ChamberSpec(g=2, e=2, i=0))",
            ),
            (
                audit_fixed_loci(HIGGS).rows[0],
                "AuditRow(kind='(3)', params=(), dimension=10, twist=0, "
                "recomputed_dimension=10, ok=True)",
            ),
            (AuditReport(2, 1, ()), "AuditReport(genus=2, degree=1, rows=())"),
        ],
    )
    def test_repr_is_pinned(self, record, text):
        assert repr(record) == text


class TestImmutability:
    @pytest.mark.parametrize(
        "record,field",
        [
            (ChamberSpec(g=2, e=3, i=1), "e"),
            (BundleSpec(2, 1), "d"),
            (HIGGS, "g"),
            (fixed_locus_12(HIGGS)[0], "twist"),
            (audit_fixed_loci(HIGGS).rows[0], "ok"),
            (audit_fixed_loci(HIGGS), "rows"),
        ],
    )
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            HIGGS.extra = 1

    def test_replace_validates_like_the_constructor(self):
        with pytest.raises(InvalidChamber):
            ChamberSpec(g=2, e=5, i=1)._replace(i=7)
        with pytest.raises(TypeError, match="^d must be an int"):
            HIGGS._replace(d=True)
        assert HIGGS._replace(d=2) == HiggsSpec(2, 2)
        assert type(HIGGS._replace(d=2)) is HiggsSpec


class TestEqualityAndCaching:
    def test_equal_specs_hash_alike(self):
        assert ChamberSpec(g=3, e=7, i=2) == ChamberSpec(3, 7, 2)
        assert hash(ChamberSpec(g=3, e=7, i=2)) == hash(ChamberSpec(3, 7, 2))
        assert HiggsSpec(3, 1) != HiggsSpec(3, 2)

    def test_equal_specs_share_one_cache_entry(self):
        pair_cofactor_flip(ChamberSpec(g=3, e=7, i=2))
        before = pair_cofactor_flip.cache_info()
        again = pair_cofactor_flip(ChamberSpec(3, 7, 2))
        after = pair_cofactor_flip.cache_info()
        assert after.hits == before.hits + 1
        assert after.currsize == before.currsize
        assert again is pair_cofactor_flip(ChamberSpec(g=3, e=7, i=2))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys, modulimotives.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
