"""In-process A/B timing of the per-frame layers of two source trees.

    git archive <base-commit> src | tar -x -C /tmp/base
    python3 tools/layer_ab.py /tmp/base/src src --rounds 20

Both trees' `dancegraph` packages are imported into one process under
different names, and each round times every layer on both, so a slow phase
of the host hits both sides alike. Which tree goes first alternates from
round to round, and every timed call starts right after a full collection. Layers: `encode_frame`,
`encode_frame (one clamped component)` (the same frame with one component
past its bound, which takes the encoder's clamping path), `encode_frame
(after a 1 ms sleep)` (one call after each `time.sleep(0.001)`, the pacing
`relay_stream` gives a pose, so caches and branch predictors have gone cold
as they do there; the median of 200 such calls), `EncodedFrame.from_bytes`, `decode_frame` (34 joints, 16 bits, a sway
frame), `decode_frame (table outside unit ball)` (the same frame against
a table of full-range bounds, which cannot prove w^2 > 0 and so keeps the
clamp and the renormalize check; no benchmark workload decodes with such a
table), `parse_packet` and `Client.ingest` of a 224-byte pose datagram, in
microseconds per call; `poll latest-wins (29 streams)`, one latest-wins
poll over 29 peer streams that each got one new packet, in microseconds
per poll; `Client.ingest + poll (29-peer tick)`, one tick of 29 peers'
pose datagrams ingested and then polled latest-wins, as a client of a
30-dancer session receives them, in microseconds per peer-frame;
`receive chain (29-peer tick)`, that tick carried on as the
`session_receive` benchmark times it (ingest, the latest-wins poll, and
`EncodedFrame.from_bytes` and `decode_frame` of every polled packet), in
microseconds per peer-frame;
`run_corrective_pipeline` and `amplify_zones` (hips 2.0, hands 0.5) on a
synthesized 24 s dancer take, in microseconds per frame, with
amplification at the window `dancegraph correct` derives from the take's
pipeline result (whole detected periods, about 240 frames);
`retime` and `resample`, the pipeline's two warp steps
(`rhythm._retime`, the warped source time of every frame, and
`rhythm._resample`, the take sampled at those times) with the arguments
the pipeline passes them on that take, in microseconds per frame;
`recording.load` and `recording.save` of that take as a file, in
microseconds per frame; `reference windows`, the chordal reference of
every window of the take's 11 active joints that `amplify_zones` takes
(`rhythm._chordal_windows`), in microseconds per frame; and the
`corrective chain`, the benchmark's four calls (load, pipeline, amplify,
save) from file to file, in microseconds per frame.
The files go to a temporary directory that is removed on exit.
Prints per layer the median microseconds of A and B, the median of the
per-round ratios B/A, and in how many rounds B was faster. Next to
`reference windows` it prints the work the references take: power
iterations per block of windows and the windows that fell back to eigh
(counted through `rhythm._top_eigvecs`). Next to the chain it prints the
`PoseFrame`s it constructs per frame of the take, through the public
constructor or `PoseFrame._trusted` (where the tree has it), and the rows
it slerps per frame (counted through `rhythm.rows_slerp`). These counts
repeat exactly from run to run; `work_counts` returns them alone, and
`tools/bench_ab.py` records them for both sides of a paired run.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import socket
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CALLS = 2000  # calls per layer per round
COLD_CALLS = 200  # calls per round of the layer timed after a sleep each
PEERS = 29  # the peers one client of a 30-dancer session receives


def load(alias: str, src: Path):
    """Import `src/dancegraph` as package `alias`, with its submodules."""
    pkg = src / "dancegraph"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("codec", "core", "harness", "packet", "recording", "rhythm", "router",
                         "transport")}


def reference_work_chordal(rhythm, references) -> dict:
    """Power iterations per block of windows and eigh-fallback windows in
    one call of `references`, counted through rhythm._top_eigvecs."""
    top, log = rhythm._top_eigvecs, []

    def counted(moments, seeds):
        out = top(moments, seeds)
        log.append((out[1], int(out[2].sum())))
        return out

    rhythm._top_eigvecs = counted
    try:
        references()
    finally:
        rhythm._top_eigvecs = top
    return {
        "power iterations/block": sum(taken for taken, _ in log) / len(log),
        "eigh windows": sum(slow for _, slow in log),
    }


def layers(m, scratch: Path):
    codec, packet = m["codec"], m["packet"]
    skeleton = m["core"].default_skeleton()
    rec = m["harness"].synthesize_sway_recording(skeleton, duration_s=2.0)
    table = codec.analyze_bounds(
        [rec.frames], margin=0.1, bits=16, joint_names=skeleton.joint_names
    )
    frame = rec.frames[5]
    enc = codec.encode_frame(frame, table)
    rows = frame.rotations.copy()
    rows[0, 0] = table.hi[0, 0] + 0.01
    clamped = m["core"].PoseFrame(frame.timestamp_us, frame.root_translation, rows)
    full = np.ones((skeleton.joint_count, 3))
    outside = codec.BoundsTable(skeleton.joint_names, -full, full, bits=16)
    enc_outside = codec.encode_frame(frame, outside)
    wire = enc.to_bytes()
    datagram = packet.frame_packet(packet.SignalType.POSE, 7, 1, 0, wire)
    stats = codec.EncoderStats()
    client = m["transport"].Client(
        socket.socket(socket.AF_INET, socket.SOCK_DGRAM), ("127.0.0.1", 9), 1,
        m["router"].SignalRouter(), start_receiver=False, keepalive_interval_s=None,
    )
    laps = [0]

    # A dancer take: the hips sway off the 120 bpm grid, every joint jitters.
    core, harness, rhythm = m["core"], m["harness"], m["rhythm"]
    sway = harness.synthesize_sway_recording(
        skeleton, duration_s=24.0, amplitude_rad=0.2, phase_rad=math.pi / 2 - 2.0 * math.pi * 0.17
    )
    noise = harness.synthesize_noise_recording(skeleton, duration_s=24.0, amplitude_rad=0.03)
    take = [
        core.PoseFrame.from_array(
            s.timestamp_us, s.root_translation, core.rows_multiply(s.rotations, n.rotations)
        )
        for s, n in zip(sway.frames, noise.frames)
    ]
    grid = rhythm.BeatGrid(bpm=120.0)
    params = rhythm.CorrectiveParams(
        zone_gains={core.BodyZone.HIPS: 2.0, core.BodyZone.HANDS: 0.5}
    )
    # One pipeline run records the arguments of its two warp steps.
    warp_args = {}

    def recorded(name):
        step = getattr(rhythm, name)

        def spy(*args):
            warp_args[name] = args
            return step(*args)
        return step, spy

    steps = {name: recorded(name) for name in ("_retime", "_resample")}
    for name, (_, spy) in steps.items():
        setattr(rhythm, name, spy)
    try:
        result = rhythm.run_corrective_pipeline(take, skeleton, grid, params)
    finally:
        for name, (step, _) in steps.items():
            setattr(rhythm, name, step)
    warped = result.frames
    window = harness._amplify_window_frames(result, params, sway.nominal_fps)
    # The active joints' tracks, whose every window's reference amplify_zones
    # takes.
    active = [j for j in range(skeleton.joint_count)
              if params.gain_for(skeleton.zone_of(j)) != 1.0]
    tracks = core.rows_normalize(np.stack([f.rotations[active] for f in warped]))  # (n, A, 4)

    def references():
        return rhythm._chordal_windows(tracks, window)
    counts = {"reference windows": reference_work_chordal(rhythm, references)}

    def repeat(fn):
        def timed() -> float:
            t0 = time.perf_counter_ns()
            for _ in range(CALLS):
                fn()
            return (time.perf_counter_ns() - t0) / CALLS / 1000
        return timed

    def after_sleep(fn):
        def timed() -> float:
            laps = []
            for _ in range(COLD_CALLS):
                time.sleep(0.001)
                t0 = time.perf_counter_ns()
                fn()
                laps.append(time.perf_counter_ns() - t0)
            return statistics.median(laps) / 1000
        return timed

    def ingest() -> float:
        # One peer's flow whose sequence numbers keep rising across rounds.
        base = laps[0] * CALLS
        laps[0] += 1
        grams = [packet.frame_packet(packet.SignalType.POSE, 7, base + i + 1, 0, wire)
                 for i in range(CALLS)]
        fn = client.ingest
        t0 = time.perf_counter_ns()
        for g in grams:
            fn(g, 0)
        return (time.perf_counter_ns() - t0) / CALLS / 1000

    # A 30-dancer session as one receiver sees it: 29 peers' streams read by
    # one latest-wins consumer. Publish counts keep rising across rounds.
    router, peers = m["router"], range(2, 2 + PEERS)
    pose = packet.SignalType.POSE
    hub = router.SignalRouter()
    producers = [hub.register_producer(router.SignalDescriptor(pose, u, router.Origin.NETWORK))
                 for u in peers]
    latest = hub.subscribe(router.SignalSelector(pose, None, router.Origin.NETWORK),
                           router.Mode.LATEST_WINS)
    ticks = [0]

    def poll_latest() -> float:
        total = 0
        for _ in range(CALLS):
            ticks[0] += 1
            for producer in producers:
                producer.publish(packet.SignalPacket(pose, 0, ticks[0], 0, wire))
            t0 = time.perf_counter_ns()
            latest.poll(64)
            total += time.perf_counter_ns() - t0
        return total / CALLS / 1000

    receiver = m["transport"].Client(
        socket.socket(socket.AF_INET, socket.SOCK_DGRAM), ("127.0.0.1", 9), 1,
        router.SignalRouter(), start_receiver=False, keepalive_interval_s=None,
    )
    tick_poll = receiver.router.subscribe(
        router.SignalSelector(pose, None, router.Origin.NETWORK), router.Mode.LATEST_WINS
    ).poll
    tick_laps = [0]

    def tick_grams() -> list:
        # Sequence numbers keep rising across rounds and across both layers.
        base = tick_laps[0] * CALLS
        tick_laps[0] += 1
        return [[packet.frame_packet(pose, u, base + i + 1, 0, wire) for u in peers]
                for i in range(CALLS)]

    def ingest_tick() -> float:
        grams = tick_grams()
        fn = receiver.ingest
        t0 = time.perf_counter_ns()
        for tick in grams:
            for g in tick:
                fn(g, 0)
            tick_poll(64)
        return (time.perf_counter_ns() - t0) / (CALLS * PEERS) / 1000

    def receive_chain() -> float:
        # The same tick carried on to the rendered frames, as session_receive
        # times it: every polled packet is parsed and decoded.
        grams = tick_grams()
        fn, from_bytes, decode = receiver.ingest, codec.EncodedFrame.from_bytes, codec.decode_frame
        t0 = time.perf_counter_ns()
        for tick in grams:
            for g in tick:
                fn(g, 0)
            for p in tick_poll(64).packets:
                decode(from_bytes(p.payload, table), table, skeleton)
        return (time.perf_counter_ns() - t0) / (CALLS * PEERS) / 1000

    recording = m["recording"]
    scratch.mkdir()
    take_file = scratch / "take.dgrc"
    take_rec = recording.Recording(skeleton.joint_count, sway.nominal_fps, take)
    recording.save_recording(take_rec, take_file)

    def per_frame(fn):
        def timed() -> float:
            t0 = time.perf_counter_ns()
            fn()
            return (time.perf_counter_ns() - t0) / len(take) / 1000
        return timed

    def chain() -> None:
        rec = recording.load_recording(take_file)
        result = rhythm.run_corrective_pipeline(rec.frames, skeleton, grid, params)
        amp_window = harness._amplify_window_frames(result, params, rec.nominal_fps)
        out = rhythm.amplify_zones(result.frames, skeleton, params, amp_window)
        recording.save_recording(
            recording.Recording(rec.joint_count, rec.nominal_fps, out), scratch / "chain.dgrc"
        )

    # One counted chain: every PoseFrame is built by its public constructor,
    # which runs __post_init__, or by PoseFrame._trusted where the tree has
    # it; every slerped row goes through rhythm.rows_slerp.
    pose_frame = core.PoseFrame
    post_init, built = pose_frame.__post_init__, [0]
    trusted = vars(pose_frame).get("_trusted")  # the classmethod itself
    slerp, slerped = rhythm.rows_slerp, [0]

    def counted_post_init(self) -> None:
        built[0] += 1
        post_init(self)

    def counted_trusted(cls, *args):
        built[0] += 1
        return trusted.__func__(cls, *args)

    def counted_slerp(a, b, u):
        slerped[0] += len(a)
        return slerp(a, b, u)

    pose_frame.__post_init__ = counted_post_init
    if trusted is not None:
        pose_frame._trusted = classmethod(counted_trusted)
    rhythm.rows_slerp = counted_slerp
    try:
        chain()
    finally:
        pose_frame.__post_init__ = post_init
        if trusted is not None:
            pose_frame._trusted = trusted
        rhythm.rows_slerp = slerp
    counts["corrective chain"] = {
        "PoseFrames/frame": built[0] / len(take),
        "slerped rows/frame": slerped[0] / len(take),
    }

    return {
        "encode_frame": repeat(lambda: codec.encode_frame(frame, table, stats)),
        "encode_frame (one clamped component)": repeat(
            lambda: codec.encode_frame(clamped, table, stats)
        ),
        "encode_frame (after a 1 ms sleep)": after_sleep(
            lambda: codec.encode_frame(frame, table, stats)
        ),
        "EncodedFrame.from_bytes": repeat(lambda: codec.EncodedFrame.from_bytes(wire, table)),
        "decode_frame": repeat(lambda: codec.decode_frame(enc, table, skeleton)),
        "decode_frame (table outside unit ball)": repeat(
            lambda: codec.decode_frame(enc_outside, outside, skeleton)
        ),
        "parse_packet": repeat(lambda: packet.parse_packet(datagram)),
        "Client.ingest": ingest,
        "poll latest-wins (29 streams)": poll_latest,
        "Client.ingest + poll (29-peer tick)": ingest_tick,
        "receive chain (29-peer tick)": receive_chain,
        "run_corrective_pipeline": per_frame(
            lambda: rhythm.run_corrective_pipeline(take, skeleton, grid, params)
        ),
        "retime": per_frame(lambda: rhythm._retime(*warp_args["_retime"])),
        "resample": per_frame(lambda: rhythm._resample(*warp_args["_resample"])),
        "amplify_zones": per_frame(lambda: rhythm.amplify_zones(warped, skeleton, params, window)),
        "recording.load": per_frame(lambda: recording.load_recording(take_file)),
        "recording.save": per_frame(
            lambda: recording.save_recording(take_rec, scratch / "out.dgrc")
        ),
        "reference windows": per_frame(references),
        "corrective chain": per_frame(chain),
    }, counts


def work_counts(src: Path, alias: str) -> dict:
    """The work counts of tree `src` (imported as package `alias`), keyed by
    layer and then by count, without timing anything."""
    with tempfile.TemporaryDirectory(prefix="layer_ab-") as tmp:
        return layers(load(alias, src), Path(tmp, "counts"))[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the `src` directory of tree A (the base)")
    parser.add_argument("b", type=Path, help="the `src` directory of tree B (the change)")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="layer_ab-") as tmp:
        a, counts_a = layers(load("dancegraph_a", args.a), Path(tmp, "a"))
        b, counts_b = layers(load("dancegraph_b", args.b), Path(tmp, "b"))
        times = {name: ([], []) for name in a}
        for r in range(args.rounds):
            # A layer runs faster right after the same layer on the other tree
            # (warm caches): with B always second, the same tree read 0.91 on
            # run_corrective_pipeline. The collection keeps one side's garbage
            # from being collected on the other side's clock.
            order = ((0, a), (1, b)) if r % 2 == 0 else ((1, b), (0, a))
            for name in a:
                for side, timers in order:
                    gc.collect()
                    times[name][side].append(timers[name]())
    width = max(map(len, times))
    for name, (ta, tb) in times.items():
        ratios = [y / x for x, y in zip(ta, tb)]
        print(f"{name:{width}s} A {statistics.median(ta):6.2f} us  B {statistics.median(tb):6.2f} us  "
              f"B/A median {statistics.median(ratios):.3f}  "
              f"B faster in {sum(r < 1.0 for r in ratios)}/{len(ratios)}")
        for label, count in counts_a.get(name, {}).items():
            print(f"{'  ' + label:{width}s} A {count:6.3f}     B {counts_b[name][label]:6.3f}")


if __name__ == "__main__":
    main()
