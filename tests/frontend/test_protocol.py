"""The E9Patch JSON-RPC protocol session."""

import base64
import json

import pytest

from repro.frontend.protocol import E9PatchSession
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import Machine, run_elf


def workload():
    return synthesize(SynthesisParams(
        n_jump_sites=15, n_write_sites=10, seed=777, loop_iters=2))


def rpc(method, params=None, msg_id=1):
    return {"jsonrpc": "2.0", "method": method,
            "params": params or {}, "id": msg_id}


class TestSession:
    def test_full_session(self):
        binary = workload()
        orig = run_elf(binary.data)
        session = E9PatchSession()

        r = session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        assert r["result"]["size"] == len(binary.data)

        r = session.handle(rpc("options", {"mode": "loader"}))
        assert r["result"] == {"ok": True}

        r = session.handle(rpc("reserve", {"name": "hits", "size": 4096}))
        assert r["result"]["name"] == "hits"

        for site in binary.jump_sites:
            r = session.handle(rpc("patch", {
                "address": site, "trampoline": "counter",
                "args": {"counter": "hits"}}))
            assert "result" in r

        r = session.handle(rpc("emit"))
        stats = r["result"]["stats"]
        assert stats["succ_pct"] == 100.0
        counter_vaddr = r["result"]["reservations"]["hits"]

        patched = base64.b64decode(r["result"]["data"])
        machine = Machine(patched)
        run = machine.run()
        assert run.observable == orig.observable
        assert machine.mem.read_u64(counter_vaddr) > 0

    def test_custom_trampoline_registration(self):
        binary = workload()
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        r = session.handle(rpc("trampoline", {
            "name": "nothing", "body": []}))
        assert r["result"]["name"] == "nothing"
        session.handle(rpc("patch", {
            "address": binary.jump_sites[0], "trampoline": "nothing"}))
        r = session.handle(rpc("emit", {"return_data": False}))
        assert "data" not in r["result"]
        assert r["result"]["stats"]["locs"] == 1

    def test_partial_disassembly_mode(self):
        """Declaring instruction addresses switches to window decoding."""
        binary = workload()
        orig = run_elf(binary.data)
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        session.handle(rpc("instruction",
                           {"addresses": binary.jump_sites[:3]}))
        for site in binary.jump_sites[:3]:
            session.handle(rpc("patch", {"address": site}))
        r = session.handle(rpc("emit"))
        assert r["result"]["stats"]["succ_pct"] == 100.0
        patched = base64.b64decode(r["result"]["data"])
        assert run_elf(patched).observable == orig.observable

    def test_emit_to_file(self, tmp_path):
        binary = workload()
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        session.handle(rpc("patch", {"address": binary.jump_sites[0]}))
        out = tmp_path / "patched.elf"
        session.handle(rpc("emit", {"filename": str(out),
                                    "return_data": False}))
        assert out.exists()
        assert run_elf(out.read_bytes()).exit_code == 0

    def test_binary_from_file(self, tmp_path):
        binary = workload()
        path = tmp_path / "in.elf"
        path.write_bytes(binary.data)
        session = E9PatchSession()
        r = session.handle(rpc("binary", {"filename": str(path)}))
        assert "result" in r

    def test_binary_reports_type_and_cet(self):
        """The binary ack carries the ELF kind and CET markers, so a
        frontend can pick shared/CET handling before sending options."""
        exe = workload()
        r = E9PatchSession().handle(rpc("binary", {
            "data": base64.b64encode(exe.data).decode()}))
        info = r["result"]
        assert info["type"] == "ET_EXEC"
        assert info["shared_object"] is False
        assert info["cet"] is False and info["cet_note"] is False

        so = synthesize(SynthesisParams(
            n_jump_sites=8, n_write_sites=4, seed=778,
            shared=True, cet=True))
        r = E9PatchSession().handle(rpc("binary", {
            "data": base64.b64encode(so.data).decode()}))
        info = r["result"]
        assert info["type"] == "ET_DYN"
        assert info["shared_object"] is True
        assert info["cet"] is True and info["cet_note"] is True


class TestOptions:
    """``options`` takes the service's JSON options object."""

    @pytest.mark.parametrize("params", [
        {"granularity": "sixteen"}, {"granularity": [16]},
        {"granularty": 2}, {"mode": "bogus"},
        # Mistyped values are refused, not coerced ("false" read as true).
        {"grouping": "false"}, {"lint": "no"}, {"granularity": True},
        {"granularity": 2.7}, {"library_path": 5},
    ])
    def test_bad_options_answer_an_error(self, params):
        binary = workload()
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        r = session.handle(rpc("options", params))
        assert r["error"]["code"] == -32000
        # The session keeps its previous options and still emits.
        session.handle(rpc("patch", {"address": binary.jump_sites[0]}))
        r = session.handle(rpc("emit", {"return_data": False}))
        assert r["result"]["stats"]["succ_pct"] == 100.0

    def test_shared_object_with_library_path(self):
        so = synthesize(SynthesisParams(n_jump_sites=8, n_write_sites=4,
                                        seed=778, shared=True))
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(so.data).decode()}))
        r = session.handle(rpc("options", {
            "shared": True, "library_path": "/usr/lib/libsynth.so",
            "lint": True}))
        assert r["result"]["ok"] is True
        assert session.options.mode == "loader"
        for addr in so.jump_sites:
            session.handle(rpc("patch", {"address": addr}))
        r = session.handle(rpc("emit", {"return_data": False}))
        assert r["result"]["stats"]["succ_pct"] == 100.0


class TestErrors:
    def test_unknown_method(self):
        r = E9PatchSession().handle(rpc("frobnicate"))
        assert "unknown method" in r["error"]["message"]

    def test_patch_before_binary(self):
        r = E9PatchSession().handle(rpc("patch", {"address": 0x1000}))
        assert "no binary" in r["error"]["message"]

    def test_unknown_trampoline(self):
        binary = workload()
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        r = session.handle(rpc("patch", {
            "address": binary.jump_sites[0], "trampoline": "bogus"}))
        assert "unknown trampoline" in r["error"]["message"]

    def test_patch_at_non_instruction(self):
        binary = workload()
        session = E9PatchSession()
        session.handle(rpc("binary", {
            "data": base64.b64encode(binary.data).decode()}))
        session.handle(rpc("patch", {"address": binary.jump_sites[0] + 1}))
        r = session.handle(rpc("emit"))
        assert "error" in r

    def test_parse_error_line(self):
        out = E9PatchSession().handle_line("{broken json")
        assert json.loads(out)["error"]["code"] == -32700

    def test_run_stream(self):
        binary = workload()
        stream = "\n".join([
            json.dumps(rpc("binary",
                           {"data": base64.b64encode(binary.data).decode()})),
            json.dumps(rpc("patch", {"address": binary.jump_sites[0]}, 2)),
            json.dumps(rpc("emit", {"return_data": False}, 3)),
        ])
        responses = [json.loads(r) for r in E9PatchSession().run(stream)]
        assert all("result" in r for r in responses)
