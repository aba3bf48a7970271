"""Unit tests for the wire protocol and block-size policies."""

import pytest

from repro.core import (
    AcceleratorHandle,
    AdaptiveBlockPolicy,
    FixedBlockPolicy,
    NAIVE_TRANSFER,
    Op,
    Request,
    Response,
    Status,
    TransferConfig,
    data_tag,
    pipeline,
    reply_tag,
)
from repro.core import protocol
from repro.errors import (
    AcceleratorFault,
    AllocationError,
    MiddlewareError,
    ProtocolError,
)
from repro.mpisim import MAX_USER_TAG, payload_nbytes
from repro.units import KiB, MiB


class TestRequestResponse:
    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            Request(op="not-an-op", req_id=1, reply_to=0)
        with pytest.raises(ProtocolError):
            Request(op=Op.KERNEL_CREATE, req_id=0, reply_to=0)
        with pytest.raises(ProtocolError):
            Request(op=Op.KERNEL_CREATE, req_id=1, reply_to=-1)

    def test_response_ok(self):
        r = Response(req_id=1, status=Status.OK, value=42)
        assert r.ok
        r.raise_for_status()  # no-op

    def test_raise_for_status_mapping(self):
        with pytest.raises(AcceleratorFault):
            Response(1, Status.BROKEN).raise_for_status()
        with pytest.raises(AllocationError):
            Response(1, Status.UNAVAILABLE).raise_for_status()
        with pytest.raises(AllocationError):
            Response(1, Status.DENIED).raise_for_status()
        with pytest.raises(MiddlewareError):
            Response(1, Status.ERROR, error="boom").raise_for_status()

    def test_handle_validation(self):
        with pytest.raises(ProtocolError):
            AcceleratorHandle(-1, 0)
        with pytest.raises(ProtocolError):
            AcceleratorHandle(0, -1)

    def test_handles_hashable_and_frozen(self):
        h = AcceleratorHandle(1, 2)
        assert hash(h) == hash(AcceleratorHandle(1, 2))
        with pytest.raises(Exception):
            h.ac_id = 5


_BLOCKS = [(0, 4096), (4096, 4096)]
_ARGS = {"x": 4096, "n": 512, "alpha": 2.0}
_CONTROL = [(Op.MEM_ALLOC.value, {"nbytes": 64}),
            (Op.KERNEL_RUN.value, {"name": "daxpy", "params": _ARGS,
                                   "real": False})]

#: One representative parameter set per op, as its sender builds it.
#: Total over :class:`Op` on purpose: a new op needs an entry here too.
REPRESENTATIVE = {
    Op.MEM_ALLOC: {"nbytes": 4096},
    Op.MEM_FREE: {"addr": 4096},
    Op.MEMCPY_H2D: {"dst": 4096, "offset": 0, "blocks": _BLOCKS,
                    "data_tag": 300_001, "gpudirect": True,
                    "meta": ("<f8", (1024,))},
    Op.MEMCPY_D2H: {"src": 4096, "offset": 0, "blocks": _BLOCKS,
                    "data_tag": 300_001, "gpudirect": True},
    Op.KERNEL_CREATE: {"name": "daxpy"},
    Op.KERNEL_RUN: {"name": "daxpy", "params": _ARGS, "real": False},
    Op.PEER_PUT: {"src": 4096, "blocks": _BLOCKS, "peer_rank": 2,
                  "peer_addr": 8192, "gpudirect": True},
    Op.MBATCH: {"reqs": [(7, _CONTROL)]},
    Op.SHUTDOWN: {},
    Op.ARM_ALLOC: {"count": 1, "wait": False, "job": "qr"},
    Op.ARM_RELEASE: {"ac_ids": [0, 1]},
    Op.ARM_STATUS: {},
    Op.ARM_BREAK: {"ac_id": 0},
    Op.ARM_VALLOC: {"tenant": "gold", "wait": True, "job": None},
    Op.ARM_VRELEASE: {"vac_id": 3, "tenant": "gold"},
    Op.VAC_ATTACH: {"vac_id": 3, "share": 0.25, "vac": 3},
    Op.VAC_DETACH: {"vac_id": 3, "vac": 3},
    Op.VAC_REVOKE: {"vac_id": 3, "oneway": True},
    Op.ARM_REPORT: {"ac_id": 0, "daemon_rank": 1, "healthy": True,
                    "version": "1.0", "active_slices": 0, "seq": 9,
                    "switch": None, "oneway": True},
    Op.ARM_LEAVE: {"ac_id": 0, "reason": "scale-down", "oneway": True},
}


def _request(op, params=None, **fields):
    fields.setdefault("req_id", 1)
    return Request(op=op, reply_to=0,
                   params=REPRESENTATIVE[op] if params is None else params,
                   **fields)


class TestRequestWireSize:
    """The size table is total over ``Op`` and free of timing inputs."""

    def test_table_is_exhaustive(self):
        assert set(protocol.PARAM_BYTES) == set(Op)

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
    def test_every_op_has_a_declared_size(self, op, monkeypatch):
        req = _request(op)
        assert req.nbytes >= (protocol.REQUEST_HEADER_BYTES
                              + protocol.PARAM_BYTES[op])
        assert payload_nbytes(req) == req.nbytes
        # A missing table entry fails; it does not fall back.
        monkeypatch.delitem(protocol.PARAM_BYTES, op)
        with pytest.raises(KeyError):
            req.nbytes

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
    def test_size_ignores_id_attempt_and_trace(self, op):
        size = _request(op).nbytes
        for req_id in (1, 255, 65_536, 2**31):
            assert _request(op, req_id=req_id).nbytes == size
        assert _request(op, attempt=3).nbytes == size
        assert _request(op, trace=(7, 9)).nbytes == size
        assert _request(op, trace=(2**40, 2**41),
                        sub_traces=[(7, 9), None]).nbytes == size

    @pytest.mark.parametrize("op", [Op.MEMCPY_H2D, Op.MEMCPY_D2H,
                                    Op.PEER_PUT], ids=lambda op: op.value)
    def test_one_descriptor_width_per_block(self, op):
        def sized(n_blocks):
            blocks = [(i * 4096, 4096) for i in range(n_blocks)]
            return _request(op, {**REPRESENTATIVE[op],
                                 "blocks": blocks}).nbytes
        assert sized(2) - sized(1) == protocol.BLOCK_BYTES
        assert sized(512) - sized(1) == 511 * protocol.BLOCK_BYTES

    def test_one_argument_width_per_kernel_argument(self):
        def sized(args):
            return _request(Op.KERNEL_RUN, {**REPRESENTATIVE[Op.KERNEL_RUN],
                                            "params": args}).nbytes
        assert sized({}) == (protocol.REQUEST_HEADER_BYTES
                             + protocol.PARAM_BYTES[Op.KERNEL_RUN])
        assert sized(_ARGS) - sized({}) == 3 * protocol.ARG_BYTES
        assert (sized({**_ARGS, "y": 8192}) - sized(_ARGS)
                == protocol.ARG_BYTES)

    def test_mbatch_is_header_plus_its_riders_subframes(self):
        def subframe(ops):
            return protocol.SUBFRAME_HEADER_BYTES + sum(
                protocol.SUBOP_HEADER_BYTES
                + _request(Op(value), params).nbytes
                - protocol.REQUEST_HEADER_BYTES
                for value, params in ops)
        riders = [_CONTROL, [(Op.KERNEL_CREATE.value, {"name": "fill"})]]
        frame = _request(Op.MBATCH, {"reqs": list(enumerate(riders, 1))})
        assert frame.nbytes == (protocol.REQUEST_HEADER_BYTES
                                + subframe(riders[0]) + subframe(riders[1]))
        # Sub-frame ids are ids: their magnitude is not a size input either.
        big = _request(Op.MBATCH, {"reqs": [(2**31 + i, ops)
                                            for i, ops in enumerate(riders)]})
        assert big.nbytes == frame.nbytes


class TestResponseWireSize:
    HEADER = protocol.RESPONSE_HEADER_BYTES
    FIELD = protocol.FIELD_BYTES

    def _sized(self, value=None, error="", req_id=1):
        status = Status.ERROR if error else Status.OK
        resp = Response(req_id, status, value=value, error=error)
        assert payload_nbytes(resp) == resp.nbytes
        return resp.nbytes

    def test_by_value_shape(self):
        assert self._sized(None) == self.HEADER
        assert self._sized(4096) == self.HEADER + self.FIELD
        assert self._sized(0.5) == self.HEADER + self.FIELD
        assert self._sized("pong") == self.HEADER + 4
        # The (dtype, shape) record a D2H reply carries.
        assert (self._sized(("<f8", (64, 64)))
                == self.HEADER + 3 + 2 * self.FIELD)
        # Dict entries: a field code and the value each.
        assert (self._sized({"revoked": True, "freed": None})
                == self.HEADER + 2 * self.FIELD + self.FIELD)
        assert (self._sized([AcceleratorHandle(0, 1), AcceleratorHandle(1, 2)])
                == self.HEADER + self.FIELD + 2 * AcceleratorHandle.nbytes)

    def test_error_text_is_charged_by_length(self):
        assert self._sized(error="boom") == self.HEADER + 4

    def test_rider_list(self):
        sub = protocol.SUBRESPONSE_BYTES
        riders = [[Response(7, Status.OK, value=4096), Response(7, Status.OK)],
                  [Response(8, Status.ERROR, error="skipped")]]
        assert self._sized(riders) == (
            self.HEADER + self.FIELD                    # rider count
            + self.FIELD + (sub + self.FIELD) + sub     # rider 7
            + self.FIELD + (sub + len("skipped")))      # rider 8

    def test_size_ignores_request_id(self):
        sizes = {self._sized(4096, req_id=i) for i in (1, 255, 65_536, 2**31)}
        assert len(sizes) == 1

    def test_unsized_value_is_an_error_not_a_guess(self):
        with pytest.raises(ProtocolError, match="no declared wire width"):
            Response(1, Status.OK, value=object()).nbytes


class TestTags:
    def test_request_ids_unique(self, cluster):
        # One stream per cluster, shared by every rank of its communicator.
        assert cluster.compute_rank(0).comm is cluster.arm.rank.comm
        ids = {next(cluster.comm.ids) for _ in range(1000)}
        assert len(ids) == 1000

    def test_tags_below_collective_space(self):
        for rid in (1, 255, 290_000, 700_001, 2**31):
            assert 0 < reply_tag(rid) < MAX_USER_TAG
            assert 0 < data_tag(rid) < MAX_USER_TAG

    def test_reply_and_data_tags_disjoint(self):
        assert reply_tag(7) != data_tag(7)
        # The ranges themselves never overlap.
        assert reply_tag(1) < 300_000 <= data_tag(1)


class TestBlockPolicies:
    def test_fixed_policy(self):
        p = FixedBlockPolicy(128 * KiB)
        assert p.block_bytes(MiB, "h2d") == 128 * KiB
        assert p.name == "pipeline-128K"

    def test_fixed_policy_rejects_nonpositive(self):
        with pytest.raises(MiddlewareError):
            FixedBlockPolicy(0)

    def test_adaptive_policy_h2d_threshold(self):
        p = AdaptiveBlockPolicy()
        assert p.block_bytes(8 * MiB, "h2d") == 128 * KiB
        assert p.block_bytes(9 * MiB, "h2d") == 512 * KiB
        assert p.block_bytes(64 * MiB, "h2d") == 512 * KiB

    def test_adaptive_policy_d2h_always_small(self):
        p = AdaptiveBlockPolicy()
        for n in (MiB, 16 * MiB, 64 * MiB):
            assert p.block_bytes(n, "d2h") == 128 * KiB

    def test_policy_name(self):
        assert AdaptiveBlockPolicy().name == "pipeline-128-512K"


class TestTransferConfig:
    def test_naive_plan_single_block(self):
        assert NAIVE_TRANSFER.plan_blocks(10 * MiB, "h2d") == [(0, 10 * MiB)]

    def test_pipeline_plan_covers_payload(self):
        cfg = pipeline(128 * KiB)
        blocks = cfg.plan_blocks(MiB + 5, "h2d")
        assert blocks[0] == (0, 128 * KiB)
        assert sum(size for _, size in blocks) == MiB + 5
        offsets = [off for off, _ in blocks]
        assert offsets == sorted(offsets)

    def test_plan_zero_bytes(self):
        assert pipeline(KiB).plan_blocks(0, "h2d") == []

    def test_plan_negative_rejected(self):
        with pytest.raises(MiddlewareError):
            pipeline(KiB).plan_blocks(-1, "h2d")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(MiddlewareError):
            TransferConfig(protocol="telepathy")

    def test_names(self):
        assert NAIVE_TRANSFER.name == "naive"
        assert pipeline(64 * KiB).name == "pipeline-64K"
