"""End-to-end request tracing through the serving tier."""

import asyncio

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.serve.config import ServeConfig
from repro.serve.protocol import PredictRequest
from repro.serve.service import PredictionService


def run(coro):
    return asyncio.run(coro)


async def _drive(config, n=64, session="traced"):
    service = PredictionService(config)
    await service.start()
    await service.open_session(session, spec_for("hmp.hybrid"))
    futures = [service.submit(PredictRequest(session, op="step",
                                             pc=0x40 + 4 * (i % 16),
                                             outcome=i & 1, seq=i))
               for i in range(n)]
    responses = [await f for f in futures]
    await service.stop()
    assert all(r.ok for r in responses)
    return service


class TestSpanLifecycle:
    def test_traced_request_yields_named_stages(self):
        # The acceptance criterion: >= 4 named spans per traced
        # request (decode, queue, batch, kernel/predict, reply).
        config = ServeConfig(n_shards=1, trace_sample_shift=0,
                             policy=ExecutionPolicy(backend="reference"))
        service = run(_drive(config))
        tracer = service.tracer
        assert tracer.counters()["spans_finished"] == 64
        span = tracer.spans[-1]
        stages = [stage for stage, _ in span.marks]
        assert len(stages) >= 4
        assert stages[0] == "decode" and stages[-1] == "reply"
        assert "queue" in stages and "batch" in stages
        assert "predict" in stages or "kernel" in stages

    def test_kernel_stage_on_vectorized_backend(self):
        pytest.importorskip("numpy")
        config = ServeConfig(n_shards=1, trace_sample_shift=0,
                             max_batch=256,
                             policy=ExecutionPolicy(backend="vectorized"),
                             max_delay_us=2000, min_kernel_run=1)
        service = run(_drive(config))
        seen = set()
        for span in service.tracer.spans:
            seen.update(stage for stage, _ in span.marks)
        assert "kernel" in seen

    def test_every_started_span_finishes(self):
        config = ServeConfig(n_shards=2, trace_sample_shift=0)
        service = run(_drive(config, n=100))
        counters = service.tracer.counters()
        assert counters["spans_started"] == 100
        assert counters["spans_finished"] == 100

    def test_sampling_shift_limits_spans(self):
        config = ServeConfig(n_shards=1, trace_sample_shift=3)
        service = run(_drive(config, n=64))
        counters = service.tracer.counters()
        assert counters["spans_started"] == 8  # 1 in 2**3
        assert counters["spans_finished"] == 8

    def test_telemetry_off_mints_no_tracer(self):
        config = ServeConfig(n_shards=1, telemetry=False)
        service = run(_drive(config))
        assert service.tracer is None

    def test_rejected_request_span_is_closed(self):
        async def scenario():
            config = ServeConfig(n_shards=1, trace_sample_shift=0)
            service = PredictionService(config)
            await service.start()
            await service.stop()  # not accepting anymore
            response = await service.submit(
                PredictRequest("s", op="step", pc=0x40, outcome=1))
            assert not response.ok
            return service

        service = run(scenario())
        counters = service.tracer.counters()
        assert counters["spans_started"] == counters["spans_finished"]


class TestAggregates:
    def test_summary_separates_queue_from_service(self):
        config = ServeConfig(n_shards=1, trace_sample_shift=0,
                             policy=ExecutionPolicy(backend="reference"))
        service = run(_drive(config))
        summary = service.tracer.summary()
        assert "queue" in summary and "total" in summary
        assert "predict" in summary or "kernel" in summary
        assert summary["queue"]["count"] == 64

    def test_metrics_snapshot_exposes_trace_and_batch_hists(self):
        config = ServeConfig(n_shards=1, trace_sample_shift=0)
        service = run(_drive(config))
        snapshot = service.metrics_snapshot()
        assert snapshot["trace.spans_finished"] == 64
        assert snapshot["serve.served"] == 64
        assert "serve.batch_size.p50" in snapshot
        assert "trace.stage_us.queue.p99" in snapshot
        assert "trace.total_us.count" in snapshot

    def test_chrome_export_has_all_stage_slices(self, tmp_path):
        config = ServeConfig(n_shards=1, trace_sample_shift=0,
                             policy=ExecutionPolicy(backend="reference"))
        service = run(_drive(config))
        doc = service.tracer.chrome_document()
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert {"decode", "queue", "batch", "reply"} <= names
        assert names & {"predict", "kernel"}
        path = tmp_path / "spans.trace.json"
        service.tracer.write_chrome(str(path))
        assert path.stat().st_size > 0


class TestWireTracing:
    def test_tcp_requests_are_traced_at_decode(self):
        async def scenario():
            from repro.serve.handle import close_handle, connect_handle
            from repro.serve.net import serve_tcp
            config = ServeConfig(n_shards=1, trace_sample_shift=0)
            service = PredictionService(config)
            await service.start()
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await connect_handle("127.0.0.1", port)
            spec = spec_for("hmp.local")
            await client.request(PredictRequest(
                "wire", op="open", spec=spec.to_json_dict(), seq=0))
            for i in range(8):
                response = await client.request(PredictRequest(
                    "wire", op="step", pc=0x80, outcome=1, seq=i + 1))
                assert response.ok
            await close_handle(client)
            server.close()
            await server.wait_closed()
            await service.stop()
            return service

        service = run(scenario())
        counters = service.tracer.counters()
        # open + steps each minted a span at protocol decode; all closed.
        assert counters["spans_started"] >= 9
        assert counters["spans_finished"] == counters["spans_started"]
        step_span = next(s for s in service.tracer.spans
                         if any(stage == "queue" for stage, _ in s.marks))
        stages = [stage for stage, _ in step_span.marks]
        assert stages[0] == "decode" and stages[-1] == "reply"
        assert len(stages) >= 4
