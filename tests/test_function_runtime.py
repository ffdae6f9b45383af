"""Focused tests for the function runtime and chain specs."""

import pytest

from repro.dataplane import KIND_RESPONSE, VIA_SKMSG
from repro.dataplane import Message as Header
from repro.memory import Buffer, BufferDescriptor
from repro.platform import ChainSpec, FunctionSpec, Message, ServerlessPlatform, Tenant
from repro.sim import Environment


def make_pair(handler=None, **spec_kwargs):
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", handler, **spec_kwargs), "worker0")
    plat.start()
    return env, plat, client


def test_message_src_property():
    msg = Message(payload="x", size=1, header=Header(src="alice"))
    assert msg.src == "alice"
    assert Message(payload="x", size=1, header=Header()).src == "?"


def test_chain_spec_exchange_count():
    chain = ChainSpec("c", "t", "entry", hops=[("a", "b"), ("b", "c")])
    assert chain.exchange_count == 4  # 2 hops x (request + response)
    assert ChainSpec("c", "t", "entry").exchange_count == 0


def test_default_echo_handler_runs_work():
    env, plat, client = make_pair(handler=None, work_us=33)
    out = []

    def body():
        yield env.timeout(5_000)
        reply = yield from client.invoke("server", [1, 2, 3], 128)
        out.append(reply.payload)

    env.process(body())
    env.run(until=200_000)
    assert out == [[1, 2, 3]]
    assert plat.functions["server"].app_time_us == pytest.approx(33.0)


def test_handler_sees_request_metadata():
    seen = {}

    def handler(ctx, msg):
        seen["src"] = msg.header.src
        seen["reply_to"] = msg.header.reply_to
        seen["kind"] = msg.header.kind
        seen["payload"] = msg.payload
        seen["size"] = msg.size
        yield from ctx.respond("ok", 8)

    env, plat, client = make_pair(handler=handler)

    def body():
        yield env.timeout(5_000)
        yield from client.invoke("server", {"k": 1}, 77)

    env.process(body())
    env.run(until=200_000)
    assert seen["payload"] == {"k": 1}
    assert seen["size"] == 77
    assert seen["src"] == "client"
    assert seen["reply_to"] == "client"
    assert seen["kind"] == "request"


def test_handler_exception_propagates():
    def handler(ctx, msg):
        yield from ctx.compute(1)
        raise RuntimeError("handler blew up")

    env, plat, client = make_pair(handler=handler)

    def body():
        yield env.timeout(5_000)
        yield from client.invoke("server", "x", 8)

    env.process(body())
    with pytest.raises(RuntimeError, match="handler blew up"):
        env.run(until=200_000)


def test_concurrency_limit_queues_requests():
    env, plat, client = make_pair(handler=None, work_us=200, concurrency=1)
    done = []

    def one(i):
        yield from client.invoke("server", i, 8)
        done.append((i, env.now))

    def body():
        yield env.timeout(5_000)
        procs = [env.process(one(i)) for i in range(3)]
        for proc in procs:
            yield proc

    env.process(body())
    env.run(until=400_000)
    # serialized on the single handler worker: ~200us apart
    times = [t for _, t in done]
    assert times[1] - times[0] >= 190
    assert times[2] - times[1] >= 190


def test_unsolicited_response_recycled():
    """A response whose caller vanished is recycled, not leaked."""
    env, plat, client = make_pair(handler=None)
    pool = plat.pool_for("t1", "worker0")

    def body():
        yield env.timeout(5_000)
        buf = pool.get("fn:server")
        buf.write("fn:server", "ghost", 5)
        header = Header(kind=KIND_RESPONSE, rid=999_999_999, dst="client",
                        tenant="t1", via=VIA_SKMSG, owner="fn:server")
        descriptor = BufferDescriptor(buffer=buf, length=5, message=header)
        buf.transfer("fn:server", "fn:client")
        header.transfer("fn:server", "fn:client")
        plat.runtimes["worker0"].sockmap.redirect("client", descriptor)

    env.process(body())
    env.run(until=100_000)
    # steady state: everything except the SRQ posting is back in the pool
    assert pool.free_count == pool.buffer_count - plat.recv_buffers


def test_latency_stats_per_invocation():
    env, plat, client = make_pair(handler=None, work_us=50)

    def body():
        yield env.timeout(5_000)
        for _ in range(4):
            yield from client.invoke("server", "x", 8)

    env.process(body())
    env.run(until=400_000)
    stats = plat.functions["server"].latency
    assert len(stats.samples) == 4
    assert stats.mean() >= 50.0
