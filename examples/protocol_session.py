#!/usr/bin/env python3
"""Drive the rewriter over its JSON-RPC protocol (E9Patch's real
integration surface: a frontend streams messages, the rewriter answers).

The session below registers a custom trampoline template, reserves a
counter page, queues patches at three call sites, and emits — all as
JSON messages a non-Python frontend could equally produce.

Run:  python3 examples/protocol_session.py
"""

import base64

from repro import E9PatchSession, ElfFile, Machine, disassemble_text
from repro.frontend.matchers import match_calls, select_sites
from repro.synth.generator import SynthesisParams, synthesize


def main() -> None:
    binary = synthesize(SynthesisParams(
        n_jump_sites=40, n_write_sites=40, seed=7777, loop_iters=2))
    call_sites = [i.address for i in select_sites(
        disassemble_text(ElfFile(binary.data)), match_calls)][:3]

    messages = [
        {"method": "binary",
         "params": {"data": base64.b64encode(binary.data).decode()}},
        {"method": "options", "params": {"mode": "loader", "granularity": 1}},
        {"method": "trampoline", "params": {
            "name": "call-counter",
            "params": ["slot"],
            "body": [
                {"op": "save_flags"},
                {"op": "save", "reg": "rax"},
                {"op": "load_imm", "reg": "rax", "value": "{slot}"},
                {"op": "inc_mem", "base": "rax"},
                {"op": "restore", "reg": "rax"},
                {"op": "restore_flags"},
            ]}},
        {"method": "reserve", "params": {"name": "slot0", "size": 4096}},
        *[{"method": "patch", "params": {
            "address": site, "trampoline": "call-counter",
            "args": {"slot": "slot0"}}} for site in call_sites],
        {"method": "emit", "params": {}},
    ]

    session = E9PatchSession()
    responses = []
    for i, message in enumerate(messages):
        request = {"jsonrpc": "2.0", "id": i, **message}
        print(f"-> {message['method']}")
        response = session.handle(request)
        if "error" in response:
            raise SystemExit(f"protocol error: {response['error']}")
        responses.append(response)

    result = responses[-1]["result"]
    print(f"\nstats: {result['stats']}")
    counter_vaddr = result["reservations"]["slot0"]
    patched = base64.b64decode(result["data"])

    machine = Machine(patched)
    run = machine.run()
    hits = machine.mem.read_u64(counter_vaddr)
    print(f"patched run: exit={run.exit_code}; "
          f"the {len(call_sites)} instrumented call sites executed {hits} times")


if __name__ == "__main__":
    main()
