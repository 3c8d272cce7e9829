"""Low-latency skeletal pose streaming toolkit.

Sensor-to-consumer pose delivery with as little in the way as possible:
an in-process signal router, a compact dropped-w quaternion codec with
data-driven quantization bounds, a UDP relay protocol, and rhythmic
beat-alignment and stylization correctives for incoming streams.

Public names resolve on first use (PEP 562), so a process loads only the
submodules it touches: the relay path (`packet`, `router`, `transport`)
never imports numpy.
"""
_SUBMODULE_OF = {
    **dict.fromkeys((
        "BoundsTable", "CorruptFrameError", "EncodedFrame", "EncoderStats",
        "ShapeMismatchError", "analyze_bounds", "decode_frame", "encode_frame",
        "max_angular_error",
    ), "codec"),
    **dict.fromkeys((
        "BodyZone", "FrameBlock", "InvalidQuaternionError", "PoseFrame", "Skeleton",
        "default_skeleton",
    ), "core"),
    **dict.fromkeys((
        "CorruptPacketError", "PayloadTooLargeError", "SignalPacket", "SignalType",
        "frame_packet", "parse_packet",
    ), "packet"),
    **dict.fromkeys((
        "Recording", "RecordingFormatError", "load_recording", "save_recording",
    ), "recording"),
    **dict.fromkeys((
        "BeatGrid", "CorrectiveParams", "FeatureSeries", "InsufficientDataError",
        "PeriodEstimate", "aggregate_joint_period", "amplify_zones",
        "detect_dominant_period", "extract_feature_series",
    ), "rhythm"),
    **dict.fromkeys((
        "Mode", "Origin", "SequenceError", "SignalDescriptor", "SignalRouter",
        "SignalSelector", "StreamConflictError",
    ), "router"),
    **dict.fromkeys((
        "Client", "ConnectTimeoutError", "RelayServer", "ServerConfig", "SessionState",
        "client_connect",
    ), "transport"),
}
# Submodules that resolve as attributes without an explicit import.
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"_mmsg"}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(_SUBMODULE_OF))
