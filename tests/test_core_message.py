"""Addressing, service specs, messages, frames."""

import pytest

from repro.core.message import (
    Address,
    Frame,
    OVERLAY_HEADER_BYTES,
    OverlayMessage,
    ServiceSpec,
    flow_id,
)


def test_unicast_address():
    addr = Address("site-NYC", 80)
    assert not addr.is_group
    assert str(addr) == "site-NYC:80"
    with pytest.raises(ValueError):
        addr.group


def test_multicast_address():
    addr = Address("mcast:video", 80)
    assert addr.is_multicast and addr.is_group and not addr.is_anycast
    assert addr.group == "mcast:video"


def test_anycast_address():
    addr = Address("acast:transcode", 80)
    assert addr.is_anycast and addr.is_group and not addr.is_multicast


def test_addresses_are_hashable_and_comparable():
    assert Address("a", 1) == Address("a", 1)
    assert len({Address("a", 1), Address("a", 1), Address("b", 1)}) == 2


def test_service_spec_defaults():
    spec = ServiceSpec()
    assert spec.routing == "link-state"
    assert spec.link == "best-effort"
    assert not spec.ordered
    assert spec.deadline is None


def test_service_spec_make_splits_fields_and_params():
    spec = ServiceSpec.make(
        routing="disjoint", link="nm-strikes", k=3, ordered=True, n=5, m=2
    )
    assert spec.k == 3
    assert spec.ordered
    assert spec.param("n") == 5
    assert spec.param("m") == 2
    assert spec.param("missing", "fallback") == "fallback"


def test_service_spec_with_params_merges():
    spec = ServiceSpec.make(n=1)
    updated = spec.with_params(n=2, extra="x")
    assert updated.param("n") == 2
    assert updated.param("extra") == "x"
    assert spec.param("n") == 1  # original untouched


def test_service_spec_is_hashable():
    a = ServiceSpec.make(link="reliable", n=3)
    b = ServiceSpec.make(link="reliable", n=3)
    assert hash(a) == hash(b)
    assert a == b


def test_flow_id_distinguishes_services():
    src, dst = Address("a", 1), Address("b", 2)
    f1 = flow_id(src, dst, ServiceSpec(link="reliable"))
    f2 = flow_id(src, dst, ServiceSpec(link="best-effort"))
    assert f1 != f2


def test_message_key_and_wire_size():
    msg = OverlayMessage(
        flow="f", seq=3, src=Address("a", 1), dst=Address("b", 2),
        service=ServiceSpec(), origin="a", sent_at=0.0, size=100,
    )
    assert not hasattr(msg, "key")  # de-duplication reads flow and seq
    assert msg.wire_size == 100 + OVERLAY_HEADER_BYTES


def test_frame_wire_size_with_and_without_message():
    msg = OverlayMessage(
        flow="f", seq=0, src=Address("a", 1), dst=Address("b", 2),
        service=ServiceSpec(), origin="a", sent_at=0.0, size=100,
    )
    data = Frame(proto="p", ftype="data", src_node="a", dst_node="b", msg=msg)
    control = Frame(proto="p", ftype="ack", src_node="a", dst_node="b",
                    info={"cum": 5})
    assert data.wire_size > msg.wire_size
    assert control.wire_size < data.wire_size
