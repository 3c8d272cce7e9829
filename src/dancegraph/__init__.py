"""Low-latency skeletal pose streaming toolkit.

Sensor-to-consumer pose delivery with as little in the way as possible:
an in-process signal router, a compact dropped-w quaternion codec with
data-driven quantization bounds, a UDP relay protocol, and rhythmic
beat-alignment and stylization correctives for incoming streams.
"""

from .codec import (
    BoundsTable,
    CorruptFrameError,
    EncodedFrame,
    EncoderStats,
    ShapeMismatchError,
    analyze_bounds,
    decode_frame,
    encode_frame,
    max_angular_error,
)
from .core import (
    BodyZone,
    InvalidQuaternionError,
    MeanConvergenceError,
    PoseFrame,
    Skeleton,
    UnitQuaternion,
    canonicalize,
    default_skeleton,
    from_axis_angle,
    geodesic_distance,
    geodesic_mean,
    scale_rotation,
    slerp,
)
from .packet import (
    CorruptPacketError,
    PayloadTooLargeError,
    SignalPacket,
    SignalType,
    frame_packet,
    parse_packet,
)
from .recording import Recording, RecordingFormatError, load_recording, save_recording
from .rhythm import (
    BeatGrid,
    CorrectiveParams,
    FeatureSeries,
    InsufficientDataError,
    PeriodEstimate,
    aggregate_joint_period,
    amplify_zones,
    beat_align_remap,
    detect_dominant_period,
    extract_feature_series,
)
from .router import (
    Mode,
    Origin,
    SequenceError,
    SignalDescriptor,
    SignalRouter,
    SignalSelector,
    StreamConflictError,
)
from .transport import (
    Client,
    ConnectTimeoutError,
    RelayServer,
    ServerConfig,
    SessionState,
    client_connect,
)

__version__ = "0.1.0"
