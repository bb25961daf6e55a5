"""Per-layer tracing for the benchmark, installed from outside the program.

Every span is recorded around a *public* boundary of one layer -- a
proxy object handed to the next layer, a subclass instance swapped into
a public attribute, or a module-level function the client and server
modules look up at call time.  No file under ``src/`` knows it is being
traced.

Two kinds of span:

* **synchronous** spans (codec, routing, lifecycle, hashing, core,
  crafting, URL generation) never yield to the event loop, so they nest
  on one stack.  A span's *self time* is its duration minus the time of
  the spans opened inside it; the sum of top-level synchronous spans is
  the loop thread's attributed time.
* **asynchronous** spans (gateway requests, backend calls) overlap
  across tasks, so they are summed per layer and never subtracted from
  anything: ``gateway.request_s`` is request-seconds spent inside the
  gateway, not a share of wall time.

Per-item boundaries (one routing decision, one candidate URL) only add
to counters; coarser spans are also kept in memory as
``(layer, start, end, parent)`` rows and written out when the run ends.
"""

from __future__ import annotations

import csv
import time

import repro.service.client
import repro.service.driver
import repro.service.server
from repro.hashing.base import IndexStrategy
from repro.service import LocalBackend, ShardBackend, ShardPicker

_now = time.perf_counter

#: Wrapped codec functions, by module, with the direction each one runs.
CODEC_BINDINGS = {
    repro.service.client: {
        "encode_request_frame": "encode",
        "encode_handoff_frame": "encode",
        "decode_response": "decode",
        "decode_response_envelope": "decode",
    },
    repro.service.server: {
        "decode_request_envelope": "decode",
        "encode_answers_frame": "encode",
        "encode_error_frame": "encode",
        "encode_stats_frame": "encode",
        "encode_not_owner_frame": "encode",
    },
}


class Layer:
    """Accumulators of one traced layer."""

    __slots__ = ("name", "busy_s", "self_s", "calls", "units", "failed", "open")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Summed span durations; self time excludes nested spans.
        self.busy_s = 0.0
        self.self_s = 0.0
        #: Spans (or per-item events) recorded, and the layer's own work
        #: unit: bytes for the encoder, items elsewhere.
        self.calls = 0
        self.units = 0
        #: Spans that ended in an exception.
        self.failed = 0
        self.open = False


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (called when timing starts).

        Layers are zeroed in place: the installed wrappers hold them."""
        for name, layer in self.layers.items():
            layer.__init__(name)
        #: Closed coarse spans as ``(layer, start, end, parent)``.
        self.spans: list[tuple[str, float, float, str]] = []
        #: Seconds covered by top-level synchronous spans.
        self.attributed_s = 0.0
        # Open synchronous spans as [layer, child seconds].
        self._stack: list[list] = []

    def layer(self, name: str) -> Layer:
        """The accumulators of ``name``, created on first use."""
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(name)
        return layer

    # -- synchronous spans ----------------------------------------------

    def call(self, layer: Layer, fn, *args, **kwargs):
        """Run ``fn`` inside a synchronous span of ``layer``.

        A call re-entering a layer already open (a batch hash that falls
        back to per-item hashing) runs untimed, so busy time counts the
        outermost span once.
        """
        if layer.open:
            return fn(*args, **kwargs)
        layer.open = True
        frame = [layer, 0.0]
        stack = self._stack
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            layer.open = False
            duration = end - start
            layer.calls += 1
            layer.busy_s += duration
            layer.self_s += duration - frame[1]
            if stack:
                stack[-1][1] += duration
                self.spans.append((layer.name, start, end, stack[-1][0].name))
            else:
                self.attributed_s += duration
                self.spans.append((layer.name, start, end, ""))

    def leaf(self, layer: Layer, duration: float) -> None:
        """Account one per-item event of ``layer`` (not kept as a span)."""
        layer.calls += 1
        layer.busy_s += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.attributed_s += duration

    # -- asynchronous spans ---------------------------------------------

    async def wait(self, layer: Layer, awaitable):
        """Await ``awaitable`` as an (overlapping) span of ``layer``;
        returns its result, counting exceptions in ``layer.failed``."""
        start = _now()
        try:
            return await awaitable
        except Exception:
            layer.failed += 1
            raise
        finally:
            end = _now()
            layer.calls += 1
            layer.busy_s += end - start
            self.spans.append((layer.name, start, end, ""))

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV (times relative to the first)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("layer", "start_s", "end_s", "parent"))
            for layer, start, end, parent in self.spans:
                out.writerow(
                    (layer, f"{start - origin:.9f}", f"{end - origin:.9f}", parent)
                )


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


class TracedGateway:
    """The gateway as :class:`~repro.service.MembershipServer` sees it."""

    def __init__(self, gateway, tracer: Tracer) -> None:
        self._gateway = gateway
        self._tracer = tracer
        self._layer = tracer.layer("gateway")

    async def insert_batch(self, items, client: str = "anon"):
        return await self._tracer.wait(
            self._layer, self._gateway.insert_batch(items, client=client)
        )

    async def query_batch(self, items, client: str = "anon"):
        return await self._tracer.wait(
            self._layer, self._gateway.query_batch(items, client=client)
        )

    def __getattr__(self, name):
        return getattr(self._gateway, name)


class TracedBackend(ShardBackend):
    """A :class:`ShardBackend` proxy timing every batched call."""

    def __init__(self, inner: ShardBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._layer = tracer.layer("backend")

    @property
    def shards(self) -> int:
        return self.inner.shards

    async def insert_batch(self, shard_id, items):
        self._layer.units += len(items)
        return await self._tracer.wait(
            self._layer, self.inner.insert_batch(shard_id, items)
        )

    async def query_batch(self, shard_id, items):
        self._layer.units += len(items)
        return await self._tracer.wait(
            self._layer, self.inner.query_batch(shard_id, items)
        )

    async def rotate(self, shard_id):
        await self.inner.rotate(shard_id)

    def state(self, shard_id):
        return self.inner.state(shard_id)

    def export_shard(self, shard_id):
        return self.inner.export_shard(shard_id)

    def restore_shard(self, shard_id, raw):
        self.inner.restore_shard(shard_id, raw)

    def shard_view(self, shard_id):
        return self.inner.shard_view(shard_id)

    def attach_shard(self):
        return self.inner.attach_shard()

    def detach_shard(self, slot):
        self.inner.detach_shard(slot)

    def close(self):
        self.inner.close()


class TracedPicker(ShardPicker):
    """Router wrapper timing each routing decision.

    The attacker's copy also counts, as ``urlgen`` units, the candidates
    that land on its ``target`` shard (the ones crafting can use).
    """

    def __init__(self, inner: ShardPicker, tracer: Tracer, target: int | None = None):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._route = tracer.layer("route")
        self._kept = tracer.layer("urlgen")
        self._target = target

    def pick(self, item, shard_count):
        start = _now()
        shard = self.inner.pick(item, shard_count)
        self._tracer.leaf(self._route, _now() - start)
        if shard == self._target:
            self._kept.units += 1
        return shard

    def hash_item(self, item):
        return self.inner.hash_item(item)

    def spec(self):
        return self.inner.spec()


class TracedPolicy:
    """Rotation-policy proxy timing each ``decide``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = tracer.layer("lifecycle")

    def decide(self, observation, life=None):
        return self._tracer.call(self._layer, self._inner.decide, observation, life)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def traced_strategy(strategy: IndexStrategy, tracer: Tracer) -> IndexStrategy:
    """A copy of ``strategy`` whose class *subclasses* the real one.

    The crafting engine picks its batched path from
    ``type(strategy).flat_batch_indexes``; a plain proxy would hide the
    override and silently switch crafting to the scalar path.  The batch
    entry point is wrapped only when the real class overrides it, so the
    engine's choice is the same traced or not.
    """
    base = type(strategy)
    layer = tracer.layer("hashing")

    def indexes(self, item, k, m):
        if not layer.open:
            layer.units += 1
        return tracer.call(layer, base.indexes, self, item, k, m)

    body = {"indexes": indexes}
    if base.flat_batch_indexes is not IndexStrategy.flat_batch_indexes:

        def flat_batch_indexes(self, items, k, m):
            items = items if isinstance(items, (list, tuple)) else list(items)
            if not layer.open:
                layer.units += len(items)
            return tracer.call(layer, base.flat_batch_indexes, self, items, k, m)

        body["flat_batch_indexes"] = flat_batch_indexes
    cls = type(f"Traced{base.__name__}", (base,), body)
    copy = cls.__new__(cls)
    copy.__dict__.update(strategy.__dict__)
    return copy


def _trace_filter(filt, tracer: Tracer) -> None:
    """Time one live shard filter's batch calls and hashing."""
    filt.strategy = traced_strategy(filt.strategy, tracer)
    layer = tracer.layer("core")
    for name in ("add_batch", "contains_batch"):
        method = getattr(filt, name)
        setattr(
            filt,
            name,
            lambda items, _method=method: tracer.call(layer, _method, items),
        )


def _traced_url_factory(base, tracer: Tracer):
    """Timing subclass of the URL factory the traffic driver binds."""
    layer = tracer.layer("urlgen")

    class TracedUrlFactory(base):
        def url(self, unique: bool = True) -> str:
            start = _now()
            url = super().url(unique)
            tracer.leaf(layer, _now() - start)
            return url

    return TracedUrlFactory


def _traced_codec(fn, direction: str, tracer: Tracer):
    layer = tracer.layer(f"codec.{direction}")
    if direction == "encode":

        def encode(*args, **kwargs):
            frame = tracer.call(layer, fn, *args, **kwargs)
            layer.units += len(frame)
            return frame

        return encode

    def decode(*args, **kwargs):
        return tracer.call(layer, fn, *args, **kwargs)

    return decode


def traced_craft(method, tracer: Tracer):
    """A traffic-driver craft call as a span, counting the items it
    returns."""
    layer = tracer.layer("craft")

    def craft(*args, **kwargs):
        crafted = tracer.call(layer, method, *args, **kwargs)
        layer.units += len(crafted)
        return crafted

    return craft


class Installation:
    """Module names patched for one traced run; :meth:`remove` puts the
    originals back."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def install(gateway, tracer: Tracer, trace_urlgen: bool = False) -> Installation:
    """Wrap every traced layer of ``gateway``'s stack in place.

    Returns the installation; the gateway proxy for the server is built
    separately (:class:`TracedGateway`) because the server takes it at
    construction.  With ``trace_urlgen`` the traffic driver's URL
    factory is swapped for a timing subclass as well.
    """
    installed = Installation()
    backend = gateway.backend
    if isinstance(backend, LocalBackend):
        for shard in range(gateway.shards):
            _trace_filter(gateway.shard_view(shard), tracer)
    gateway.backend = TracedBackend(backend, tracer)
    gateway.picker = TracedPicker(gateway.picker, tracer)
    if gateway.policy is not None:
        gateway.policy = TracedPolicy(gateway.policy, tracer)
    for module, names in CODEC_BINDINGS.items():
        for name, direction in names.items():
            installed.patch(
                module, name, _traced_codec(getattr(module, name), direction, tracer)
            )
    if trace_urlgen:
        driver = repro.service.driver
        installed.patch(
            driver, "UrlFactory", _traced_url_factory(driver.UrlFactory, tracer)
        )
    return installed
