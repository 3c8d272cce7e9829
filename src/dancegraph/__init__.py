"""Low-latency skeletal pose streaming toolkit.

Sensor-to-consumer pose delivery with as little in the way as possible:
an in-process signal router, a compact dropped-w quaternion codec with
data-driven quantization bounds, a UDP relay protocol, and rhythmic
beat-alignment and stylization correctives for incoming streams.

Import each public name from its own module, where that module's
`__all__` lists it (`from dancegraph.codec import encode_frame`). The
package itself imports nothing, so the relay path (`packet`, `router`,
`transport`) never loads numpy.
"""
