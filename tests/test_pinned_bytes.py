"""Byte-level pins for the synthesizers, the codec and the recording writer.

The digests were computed from the tuple-of-quaternions implementation that
preceded the array-backed PoseFrame; any change in synthesized values,
payload packing or file layout shows up here as a mismatch.
"""
import hashlib

import numpy as np
import pytest

from dancegraph.codec import analyze_bounds, encode_frame
from dancegraph.harness import synthesize_noise_recording, synthesize_sway_recording
from dancegraph.recording import save_recording

PINNED = {
    "sway": {
        "rotations": "bbe415722130f77ec2757125ba8fa562b62388e932b5bdfc0b10a06c71df0bdf",
        8: "526e8cd0bb3a75b11a0a9fea9cc69b65a26175b6c8550dae9b3969683e494296",
        11: "0a575df6750c18b62ea1d30b5c9c18d7de8aa778ff55fced8822332d238be158",
        16: "02818ac525a63301d0e7b195f0d475390aa9525cffa3fdb2f4950008ad722b8c",
        24: "86ea753687b6e1230d11eabc6ad7825d9d62547d04a7633d8d5852c6fc9b3402",
        "file": "a519419c95ee736ee3e32c1f5888627e842cb33367e21ba8dd5e932481986869",
    },
    "noise": {
        "rotations": "197620689288a041b5a2ed9cb163fa5349bff7854e91f34e63152f0cdeac0c59",
        8: "49dccfdac1f270be09ed693032d30e8f94d6474dcde06f78458c23c8ddacf6ad",
        11: "ac02b5c2e1e7830873eed6c0989b8c947d128b325befec85828017b9cfd888e5",
        16: "62fd32aaa75c89e4da03e6802b2a56710b0d3644d797dfda190de8fd480a0b4e",
        24: "7420c03b9cce1c26c7e88a01594090c886aef15c57fe84f995fcf668dce68628",
        "file": "4835d4f6ada75d401212635906fcee151c077bbb63a716787bb0609e319f914a",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def recordings():
    return {
        "sway": synthesize_sway_recording(),
        "noise": synthesize_noise_recording(seed=3),
    }


@pytest.mark.parametrize("name", ["sway", "noise"])
def test_synthesized_rotations_pinned(recordings, name):
    rec = recordings[name]
    rot = np.ascontiguousarray(np.stack([f.rotation_array() for f in rec.frames]), dtype="<f8")
    assert _sha(rot.tobytes()) == PINNED[name]["rotations"]


@pytest.mark.parametrize("bits", [8, 11, 16, 24])
@pytest.mark.parametrize("name", ["sway", "noise"])
def test_encoded_frames_pinned(recordings, name, bits):
    rec = recordings[name]
    table = analyze_bounds([rec.frames], margin=0.1, bits=bits)
    blob = b"".join(encode_frame(f, table).to_bytes() for f in rec.frames)
    assert _sha(blob) == PINNED[name][bits]


@pytest.mark.parametrize("name", ["sway", "noise"])
def test_saved_file_pinned(recordings, name, tmp_path):
    path = tmp_path / f"{name}.dgrc"
    save_recording(recordings[name], path)
    assert _sha(path.read_bytes()) == PINNED[name]["file"]
