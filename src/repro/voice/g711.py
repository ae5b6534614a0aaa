"""G.711 frame constants.

G.711 is 64 kbps PCM: 8000 samples/s, 8 bits each.  A 20 ms packet carries
one 160-sample frame — exactly the paper's "G.711-like" stream (160-byte
packets at 20 ms spacing).  Concealment accounting counts in these units.
"""

SAMPLE_RATE_HZ = 8000
FRAME_MS = 20
SAMPLES_PER_FRAME = SAMPLE_RATE_HZ * FRAME_MS // 1000  # 160
BYTES_PER_FRAME = SAMPLES_PER_FRAME  # 8-bit samples
