"""The service wire format: request parsing and canonical JSON.

Responses are encoded with :func:`json_bytes` — sorted keys, no
whitespace — so a response's bytes are a pure function of its payload.
That is what makes the service's acceptance property testable: a bulk
response must be *byte-identical* to serializing the predictions of a
serial :meth:`Engine.predict_many` over the same blocks.

Prediction values carry exact :class:`fractions.Fraction` bounds; the
wire format keeps both views — ``cycles`` (the paper's 2-digit float
rounding) and ``exact`` (the fraction as a string) — so clients never
lose precision to JSON's float type.

Request-side helpers raise :class:`RequestError`, which carries the
HTTP status the server should answer with (400 for malformed bodies,
404 for unknown µarchs/predictors).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import json

from repro.core.components import ThroughputMode
from repro.core.counterfactual import idealized_speedup
from repro.core.model import Prediction
from repro.isa.block import BasicBlock


class RequestError(Exception):
    """A client error, answered with *status* and a JSON error body.

    *headers* (optional) are extra response headers — the 429
    load-shedding path uses this to attach ``Retry-After``.
    """

    def __init__(self, message: str, status: int = 400,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers) if headers else {}


def json_bytes(payload: Dict) -> bytes:
    """Canonical JSON encoding (sorted keys, compact, UTF-8).

    Deterministic by construction: equal payloads always serialize to
    equal bytes, regardless of how the predictions behind them were
    batched.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _fraction_str(value: Fraction) -> str:
    return (f"{value.numerator}/{value.denominator}"
            if value.denominator != 1 else str(value.numerator))


def prediction_to_dict(prediction: Prediction, block: BasicBlock,
                       uarch: str, *,
                       counterfactuals: bool = False) -> Dict:
    """The wire representation of one prediction (see docs/SERVICE.md).

    Args:
        prediction: the model output to serialize.
        block: the predicted block (for the ``block`` echo field).
        uarch: µarch abbreviation the prediction was made on.
        counterfactuals: include per-component idealization speedups
            (the Table-4 analysis) under ``counterfactual_speedups``.
    """
    return prediction_payload(prediction, block.raw, len(block), uarch,
                              counterfactuals=counterfactuals)


def prediction_payload(prediction: Prediction, raw: bytes,
                       n_instructions: int, uarch: str, *,
                       counterfactuals: bool = False) -> Dict:
    """:func:`prediction_to_dict` from a block's bytes and instruction
    count, for callers that never decode the block (the shard)."""
    payload = {
        "block": {
            "hex": raw.hex(),
            "instructions": n_instructions,
            "bytes": len(raw),
        },
        "uarch": uarch,
        "mode": prediction.mode.value,
        "cycles": prediction.cycles,
        "exact": (_fraction_str(prediction.throughput)
                  if prediction.throughput is not None else None),
        "bounds": {comp.value: round(float(bound), 2)
                   for comp, bound in prediction.bounds.items()},
        "exact_bounds": {comp.value: _fraction_str(bound)
                         for comp, bound in prediction.bounds.items()},
        "bottlenecks": [comp.value for comp in prediction.bottlenecks],
        "fe_component": (prediction.fe_component.value
                         if prediction.fe_component is not None else None),
        "jcc_affected": prediction.jcc_affected,
        "lsd_applicable": prediction.lsd_applicable,
        "critical_instructions":
            list(prediction.critical_instruction_indices),
    }
    if counterfactuals:
        speedups = {}
        for comp in prediction.bounds:
            speedup = idealized_speedup(prediction, comp)
            if speedup is not None:
                speedups[comp.value] = round(speedup, 2)
        payload["counterfactual_speedups"] = speedups
    return payload


def parse_json_body(raw: bytes) -> Dict:
    """Decode a request body; must be a JSON object."""
    if not raw:
        raise RequestError("empty request body (expected a JSON object)")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError(f"invalid JSON body: {exc}")
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    return body


def _block_text(obj: Dict, field: str) -> Tuple[Optional[str],
                                                Optional[str]]:
    """``(hex, asm)`` of a block object, exactly one of them set."""
    if not isinstance(obj, dict):
        raise RequestError(f"{field} must be an object with "
                           "an 'hex' or 'asm' field")
    raw_hex = obj.get("hex")
    asm = obj.get("asm")
    if (raw_hex is None) == (asm is None):
        raise RequestError(
            f"{field} needs exactly one of 'hex' or 'asm'")
    if raw_hex is not None and not isinstance(raw_hex, str):
        raise RequestError(f"undecodable {field}: 'hex' must be a string")
    if asm is not None and not isinstance(asm, str):
        raise RequestError(f"undecodable {field}: 'asm' must be a string")
    return raw_hex, asm


def parse_block_bytes(obj: Dict, *, field: str = "request") -> bytes:
    """A block's bytes from a ``{"hex": ...}`` or ``{"asm": ...}`` object.

    Hex goes through ``bytes.fromhex`` and assembly is assembled; the
    bytes are never decoded here.  Whether they decode is the shard's
    to find out (:func:`repro.service.shard.predict_fragments`).
    """
    raw_hex, asm = _block_text(obj, field)
    try:
        if raw_hex is not None:
            return bytes.fromhex(raw_hex)
        return BasicBlock.from_asm(asm.replace("\\n", "\n")).raw
    except Exception as exc:
        raise RequestError(f"undecodable {field}: {exc}")


def parse_block(obj: Dict, *, field: str = "request") -> BasicBlock:
    """Build a block from a ``{"hex": ...}`` or ``{"asm": ...}`` object."""
    raw_hex, asm = _block_text(obj, field)
    try:
        if raw_hex is not None:
            return BasicBlock.from_bytes(bytes.fromhex(raw_hex))
        return BasicBlock.from_asm(asm.replace("\\n", "\n"))
    except Exception as exc:
        raise RequestError(f"undecodable {field}: {exc}")


def parse_mode(body: Dict) -> ThroughputMode:
    """The throughput notion of a request (default: loop/TPL)."""
    value = body.get("mode", ThroughputMode.LOOP.value)
    try:
        return ThroughputMode(value)
    except ValueError:
        raise RequestError(
            f"unknown mode {value!r} (expected 'unrolled' or 'loop')")


def parse_blocks(body: Dict, *, max_blocks: int) -> List[bytes]:
    """The block bytes of a bulk request (bounded, order-preserving;
    see :func:`parse_block_bytes`)."""
    blocks = body.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise RequestError("'blocks' must be a non-empty array")
    if len(blocks) > max_blocks:
        raise RequestError(
            f"bulk request too large ({len(blocks)} blocks; "
            f"the server accepts at most {max_blocks})", status=413)
    return [parse_block_bytes(obj, field=f"blocks[{index}]")
            for index, obj in enumerate(blocks)]


#: Upper bound on request deadlines: a client cannot pin a request (and
#: whatever resources wait on it) for more than this.
MAX_TIMEOUT_MS = 10 * 60 * 1000.0


def parse_timeout_ms(body: Dict) -> Optional[float]:
    """The request's ``timeout_ms`` deadline budget, if it sent one.

    ``None`` means "no deadline" (the pre-robustness behavior).  The
    service adds the budget to ``time.monotonic()`` at parse time and
    propagates the resulting deadline into the micro-batcher, which
    sheds the request (HTTP 504) if it is still queued when the
    deadline passes.
    """
    value = body.get("timeout_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("'timeout_ms' must be a number")
    if not value > 0:  # NaN too: it would never expire
        raise RequestError("'timeout_ms' must be > 0")
    return float(min(value, MAX_TIMEOUT_MS))


def parse_counterfactuals(body: Dict) -> bool:
    value = body.get("counterfactuals", False)
    if not isinstance(value, bool):
        raise RequestError("'counterfactuals' must be a boolean")
    return value


def parse_uarch(body: Dict, default: str,
                known: Optional[List[str]] = None) -> str:
    """The µarch of a request (404 on unknown names)."""
    value = body.get("uarch", default)
    if not isinstance(value, str):
        raise RequestError("'uarch' must be a string")
    if known is not None and value not in known:
        raise RequestError(
            f"unknown uarch {value!r} (available: {', '.join(known)})",
            status=404)
    return value


# -- the versioned (v1) response envelope ------------------------------

#: The API version served under the ``/v1/`` route namespace.
API_VERSION = "v1"

#: The structured error-code vocabulary of the v1 API: HTTP status →
#: machine-readable ``error.code``.  ``scripts/check_docs.py`` checks
#: this table against the error-code reference in ``docs/SERVICE.md``
#: in both directions.
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    413: "too_large",
    429: "overloaded",
    500: "internal",
    504: "deadline_exceeded",
}


def meta_dict(*, uarch: Optional[str] = None, mode: Optional[str] = None,
              cache: object = None,
              timing_ms: Optional[float] = None,
              trace: Optional[str] = None) -> Dict:
    """The v1 ``meta`` object; every key always present (null if N/A)."""
    return {
        "api_version": API_VERSION,
        "uarch": uarch,
        "mode": mode,
        "cache": cache,
        "timing_ms": timing_ms,
        "trace": trace,
    }


def envelope_bytes(result_bytes: bytes, meta: Dict) -> bytes:
    """A v1 success envelope assembled at the byte level.

    The envelope's keys sort as ``error`` < ``meta`` < ``result``, so
    splicing pre-serialized *result_bytes* into a literal skeleton
    yields exactly the bytes :func:`json_bytes` would produce for the
    full dict — tested in ``tests/service/test_v1_api.py`` — while
    letting the server reuse cached prediction fragments without ever
    re-parsing them.
    """
    return (b'{"error":null,"meta":' + json_bytes(meta)
            + b',"result":' + result_bytes + b"}")


def error_envelope_bytes(status: int, message: str, *,
                         retry_after_ms: Optional[float] = None,
                         trace: Optional[str] = None) -> bytes:
    """The v1 structured error body for *status*.

    Unknown statuses fall back to the ``internal`` code rather than
    leaking a numeric status into the code vocabulary.
    """
    error: Dict = {
        "code": ERROR_CODES.get(status, ERROR_CODES[500]),
        "message": message,
    }
    if retry_after_ms is not None:
        error["retry_after_ms"] = round(retry_after_ms, 3)
    return json_bytes({"error": error, "meta": meta_dict(trace=trace),
                       "result": None})
