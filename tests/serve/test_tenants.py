"""Tenant namespaces and name validation."""

import pytest

from repro.serve.protocol import DEFAULT_TENANT, TenantError, validate_tenant
from repro.serve.tenants import TenantManager


# ----------------------------------------------------------------------
# Name validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["alice", "team-7", "a.b_c", "X" * 64, "0x9"])
def test_valid_tenant_names(name):
    assert validate_tenant(name) == name


@pytest.mark.parametrize("raw", ["", "   ", None])
def test_missing_tenant_maps_to_default(raw):
    assert validate_tenant(raw or "") == DEFAULT_TENANT


@pytest.mark.parametrize(
    "name",
    [".hidden", "..", "../escape", "a/b", "a b", "é", "-lead", "X" * 65],
)
def test_invalid_tenant_names_rejected(name):
    with pytest.raises(TenantError):
        validate_tenant(name)


# ----------------------------------------------------------------------
# Namespaces
# ----------------------------------------------------------------------
def test_namespaces_are_distinct_directories(tmp_path):
    manager = TenantManager(cache_root=str(tmp_path))
    alice = manager.cache_for("alice")
    bob = manager.cache_for("bob")
    assert alice.root == tmp_path / "alice"
    assert bob.root == tmp_path / "bob"
    assert manager.cache_for("alice") is alice  # memoized
    assert manager.snapshot() == {"namespaces": ["alice", "bob"]}


def test_no_cache_root_disables_persistence():
    manager = TenantManager(cache_root=None)
    assert manager.cache_for("alice") is None
    assert manager.snapshot() == {"namespaces": []}

