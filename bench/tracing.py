"""Spans around the public functions of the fedransom layers.

A traced run rebinds each function in TIMED to a wrapper that records one
span per call: name, start, end, parent span and thread. Aliases imported
into other fedransom modules (``fedavg.fit``, ``fedwire.local_train``,
``corpus.bytes_to_image``, ...) are the same function objects, so they
are rebound too. Spans stay in memory and are written out once the run
ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

# The timed functions of each layer. metrics, cli and errors are not timed:
# their work is negligible or pure orchestration. Helpers such as
# checkpoint.write_tensors or fedwire.encode_frame stay inside the self time
# of the function that calls them.
TIMED = {
    "corpus": ("read_manifest", "load_dataset"),
    "imaging": ("bytes_to_image",),
    "data": ("from_images",),
    "nn": ("init_params", "conv2d_same", "dropout", "forward", "loss_and_grad",
           "sgd_step", "predict", "fit"),
    "fedavg": ("local_train", "aggregate", "evaluate_model", "round_report"),
    "checkpoint": ("params_to_bytes", "params_from_bytes"),
    "fedwire": ("serve", "encode_weight_blob", "decode_weight_blob", "send_frame"),
}

# These report inclusive time, because their own body is glue around timed
# calls; every other ``<layer>.<function>_s`` metric is a self time.
INCLUSIVE = ("nn.predict", "fedavg.local_train", "fedavg.round_report")


def _sample_count(trace, *_args, **_kwargs) -> int:
    return int(trace.batch.shape[0])


def _frame_bytes(_sock, _msg_type, payload=b"", **_kwargs) -> int:
    return 5 + len(payload)  # u32 length + u8 type + payload


def _round_index(*args, **kwargs) -> int:
    return int(kwargs.get("round_index", args[3] if len(args) > 3 else 0))


# Per-call quantities recorded on the span, by function.
_MEASURES = {
    "nn.loss_and_grad": _sample_count,
    "fedwire.send_frame": _frame_bytes,
    "fedavg.local_train": _round_index,
}


class Tracer:
    """Collects spans as ``[name, start_ns, end_ns, parent, thread, value]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans = self.spans
        local = self._local
        measure = _MEASURES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0, 0, stack[-1] if stack else -1,
                    threading.get_ident(), measure(*args, **kwargs) if measure else 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every TIMED function, and each alias of it, to a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fedransom" or n.startswith("fedransom.")]
        for layer, names in TIMED.items():
            module = sys.modules[f"fedransom.{layer}"]
            for attr in names:
                func = getattr(module, attr)
                traced = self._wrap(f"{layer}.{attr}", func)
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is func:
                            self._restore.append((holder, alias, func))
                            setattr(holder, alias, traced)

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def uninstall(self) -> None:
        for holder, alias, func in reversed(self._restore):
            setattr(holder, alias, func)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "thread", "value"],
                       "spans": self.spans}, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans.

    ``<layer>.<function>_s`` is the summed self time of that function
    (duration minus its child spans), or its inclusive time for the
    functions in INCLUSIVE. ``nn.predict_s`` counts only predict calls
    outside ``fit``; those inside, the per-epoch accuracy pass, make up
    ``nn.fit_accuracy_s``.
    """
    durations = [s[2] - s[1] for s in spans]
    child_time = [0] * len(spans)
    for s, d in zip(spans, durations):
        if s[3] >= 0:
            child_time[s[3]] += d

    def under(i: int, ancestor: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    ns: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[0]
        if name == "nn.predict" and under(i, "nn.fit"):
            key, value = "nn.fit_accuracy", durations[i]
        elif name in INCLUSIVE:
            key, value = name, durations[i]
        else:
            key, value = name, durations[i] - child_time[i]
        ns[key] = ns.get(key, 0) + value
    out = {f"{k}_s": v / 1e9 for k, v in ns.items()}

    out["nn.steps"] = sum(1 for s in spans if s[0] == "nn.sgd_step")
    out["nn.samples"] = sum(s[5] for s in spans if s[0] == "nn.loss_and_grad")
    out["fedwire.frames"] = sum(1 for s in spans if s[0] == "fedwire.send_frame")
    out["fedwire.bytes"] = sum(s[5] for s in spans if s[0] == "fedwire.send_frame")

    by_round: dict[int, list[int]] = {}
    for s, d in zip(spans, durations):
        if s[0] == "fedavg.local_train":
            by_round.setdefault(s[5], []).append(d)
    out["fedavg.client_spread_s"] = sum(
        max(ds) - min(ds) for ds in by_round.values()) / 1e9

    wait = 0
    for i, s in enumerate(spans):
        if s[0] != "fedwire.serve":
            continue
        children = [j for j, c in enumerate(spans) if c[3] == i]
        # the rounds begin once the model is initialised, after every HELLO
        joined = min((spans[j][1] for j in children if spans[j][0] == "nn.init_params"),
                     default=s[1])
        busy = sum(durations[j] for j in children if spans[j][1] >= joined)
        wait += (s[2] - joined) - busy
    out["fedwire.server_wait_s"] = wait / 1e9
    return out


def cost_per_span_s(calls: int = 20000) -> float:
    """Time one wrapped call of an empty function, less the bare call."""
    def empty():
        return None
    traced = Tracer()._wrap("empty", empty)
    timings = []
    for func in (empty, traced):
        t = time.perf_counter()
        for _ in range(calls):
            func()
        timings.append(time.perf_counter() - t)
    return max(0.0, timings[1] - timings[0]) / calls
