"""JSONL transport: TCP round-trips, stdio loop, in-band errors."""

import asyncio
import io

from repro.api import spec_for
from repro.serve import (
    PredictRequest,
    PredictionService,
    ServeConfig,
    close_handle,
    connect_handle,
    serve_stdio,
    serve_tcp,
)
from repro.serve.protocol import PredictResponse


def test_tcp_round_trip():
    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await connect_handle("127.0.0.1", port)
            spec = spec_for("hmp.local", size=64).to_json_dict()

            r = await client.request(PredictRequest(
                "s", op="open", spec=spec))
            assert r.ok
            for i in range(6):
                r = await client.request(PredictRequest(
                    "s", op="step", pc=0x40, outcome=1, seq=i))
                assert r.ok and r.result in (0, 1) and r.seq == i
            r = await client.request(PredictRequest("s", op="ping"))
            assert r.ok
            r = await client.request(PredictRequest("s", op="close"))
            assert r.ok and r.result == 6

            # Errors come back in-band, not as dropped connections.
            r = await client.request(PredictRequest(
                "gone", op="step", pc=4, outcome=1))
            assert not r.ok and r.error == "unknown-session"
            r = await client.request(PredictRequest(
                "s2", op="open"))  # open without a spec
            assert not r.ok and "spec" in r.error

            await close_handle(client)
            server.close()
            await server.wait_closed()
    asyncio.run(main())


def test_tcp_malformed_line_is_answered():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            response = PredictResponse.from_json(line.decode())
            assert not response.ok and "bad-request" in response.error
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
    asyncio.run(main())


def test_stdio_loop():
    spec = spec_for("hmp.local", size=64).to_json_dict()
    lines = [
        PredictRequest("s", op="open", spec=spec).to_json(),
        PredictRequest("s", op="step", pc=0x40, outcome=1,
                       seq=0).to_json(),
        "",  # blank lines are skipped
        PredictRequest("s", op="close").to_json(),
    ]
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()

    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            await serve_stdio(service, stdin=stdin, stdout=stdout)

    asyncio.run(main())
    responses = [PredictResponse.from_json(line)
                 for line in stdout.getvalue().splitlines()]
    assert len(responses) == 3
    assert all(r.ok for r in responses)
    assert responses[1].result in (0, 1)
    assert responses[2].result == 1  # served count from close
